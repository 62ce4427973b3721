package optimizer

import (
	"fmt"
	"math/bits"

	"reopt/internal/catalog"
	"reopt/internal/cost"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
)

// DefaultDPThreshold mirrors PostgreSQL's geqo_threshold: queries joining
// more relations than this use the randomized search instead of the
// exhaustive dynamic program.
const DefaultDPThreshold = 12

// Config tunes the optimizer.
type Config struct {
	// Units are the cost units; zero value means cost.DefaultUnits.
	Units cost.Units
	// BushyTrees enables bushy join trees in the DP (left-deep plans are
	// always considered).
	BushyTrees bool
	// DPThreshold is the maximum relation count for exhaustive DP; 0
	// means DefaultDPThreshold.
	DPThreshold int
	// Profile selects the estimation profile; nil means PostgresProfile.
	Profile *Profile
	// Seed drives the randomized search for large queries.
	Seed int64
}

// DefaultConfig returns the standard configuration: PostgreSQL-style
// estimation, default cost units, bushy trees enabled.
func DefaultConfig() Config {
	return Config{
		Units:       cost.DefaultUnits,
		BushyTrees:  true,
		DPThreshold: DefaultDPThreshold,
	}
}

// Optimizer is a cost-based query optimizer over a catalog.
type Optimizer struct {
	cat   *catalog.Catalog
	cfg   Config
	model *cost.Model
}

// New returns an optimizer. A zero Units config is replaced by the
// defaults so that Config{} is usable.
func New(cat *catalog.Catalog, cfg Config) *Optimizer {
	if cfg.Units == (cost.Units{}) {
		cfg.Units = cost.DefaultUnits
	}
	if cfg.DPThreshold <= 0 {
		cfg.DPThreshold = DefaultDPThreshold
	}
	if cfg.Profile == nil {
		cfg.Profile = PostgresProfile()
	}
	return &Optimizer{cat: cat, cfg: cfg, model: cost.NewModel(cfg.Units)}
}

// Catalog returns the catalog the optimizer plans against.
func (o *Optimizer) Catalog() *catalog.Catalog { return o.cat }

// Config returns the active configuration.
func (o *Optimizer) Config() Config { return o.cfg }

// Units returns the active cost units.
func (o *Optimizer) Units() cost.Units { return o.cfg.Units }

// Optimize plans the query once. gamma may be nil (plain optimization)
// or a store of sampling-validated cardinalities, which override the
// statistics-based estimates for every relation set they cover. A caller
// that plans the same query again after Γ grows — the round loop of
// Algorithm 1 — keeps the Planner from Prepare instead.
func (o *Optimizer) Optimize(q *sql.Query, gamma *Gamma) (*plan.Plan, error) {
	p, err := o.Prepare(sql.NewGraph(q), gamma)
	if err != nil {
		return nil, err
	}
	return p.Plan()
}

// addAggregate wraps the join tree in a hash aggregate for GROUP BY
// queries, estimated by priceAggregate.
func (p *Planner) addAggregate(root plan.Node) (*plan.AggregateNode, error) {
	schema := root.Schema()
	groupBy := p.g.Query.GroupBy
	outCols := make([]rel.Column, 0, len(groupBy)+1)
	for _, c := range groupBy {
		j, err := schema.IndexOf(c.Table, c.Column)
		if err != nil {
			return nil, fmt.Errorf("optimizer: GROUP BY %s: %v", c, err)
		}
		outCols = append(outCols, schema.Columns[j])
	}
	outCols = append(outCols, rel.Column{Table: "", Name: "count", Kind: rel.KindInt})
	agg := &plan.AggregateNode{GroupBy: groupBy, Child: root, OutSchema: rel.NewSchema(outCols...)}
	agg.Rows, agg.CostVal = p.priceAggregate(agg.GroupBy, root)
	return agg, nil
}

// priceAggregate estimates a hash aggregate of child, for addAggregate
// and Recost: the grouping columns' distinct counts multiplied (AVI
// again), capped by the input cardinality; an operator per input row
// and a tuple per group.
func (p *Planner) priceAggregate(groupBy []sql.ColRef, child plan.Node) (rows, cost float64) {
	rows = 1.0
	for _, c := range groupBy {
		if bit := p.g.Query.Bit(c.Table); bit != 0 {
			if cs := p.o.cat.ColumnStats(p.leaves[bits.TrailingZeros64(bit)].ref.Name, c.Column); cs != nil && cs.NumDistinct > 0 {
				rows *= float64(cs.NumDistinct)
			}
		}
	}
	inRows := child.EstRows()
	rows = max(min(rows, inRows), 1)
	u := p.o.model.U
	return rows, child.Cost() + inRows*u.CPUOperator + rows*u.CPUTuple
}
