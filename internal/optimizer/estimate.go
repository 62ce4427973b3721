package optimizer

import (
	"fmt"
	"math"

	"reopt/internal/catalog"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/stats"
	"reopt/internal/storage"
)

// estimator computes cardinalities for one query. Relation sets are
// bitmasks over the FROM-list position. Validated cardinalities in Γ
// take precedence over histogram-derived estimates at every granularity
// (leaf selections and join results alike).
type estimator struct {
	cat     *catalog.Catalog
	q       *sql.Query
	gamma   *Gamma
	profile *Profile

	aliases  []string
	aliasIdx map[string]int
	tables   map[string]*storage.Table

	leafBaseRows []float64 // unfiltered row counts, by alias position
	leafRows     []float64 // post-selection estimates, by alias position

	joins []joinEdge

	cardMemo map[uint64]float64
}

type joinEdge struct {
	pred sql.JoinPred
	sel  float64
	mask uint64 // bits of the two aliases the predicate connects
}

func newEstimator(cat *catalog.Catalog, q *sql.Query, gamma *Gamma, profile *Profile) (*estimator, error) {
	if profile == nil {
		profile = PostgresProfile()
	}
	e := &estimator{
		cat:      cat,
		q:        q,
		gamma:    gamma,
		profile:  profile,
		aliasIdx: make(map[string]int, len(q.Tables)),
		tables:   make(map[string]*storage.Table, len(q.Tables)),
		cardMemo: make(map[uint64]float64),
	}
	if len(q.Tables) > 63 {
		return nil, fmt.Errorf("optimizer: queries with more than 63 tables are not supported")
	}
	for i, t := range q.Tables {
		e.aliases = append(e.aliases, t.Alias)
		e.aliasIdx[t.Alias] = i
		tbl, err := cat.Table(t.Name)
		if err != nil {
			return nil, err
		}
		e.tables[t.Alias] = tbl
	}
	e.leafBaseRows = make([]float64, len(q.Tables))
	e.leafRows = make([]float64, len(q.Tables))
	for i, tr := range q.Tables {
		e.leafBaseRows[i] = float64(e.tables[tr.Alias].NumRows())
		e.leafRows[i] = e.estimateLeaf(tr)
	}
	for _, j := range q.Joins {
		li, ok1 := e.aliasIdx[j.Left.Table]
		ri, ok2 := e.aliasIdx[j.Right.Table]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("optimizer: join predicate %s references unknown alias", j)
		}
		e.joins = append(e.joins, joinEdge{
			pred: j,
			sel:  e.joinSelectivity(j),
			mask: 1<<uint(li) | 1<<uint(ri),
		})
	}
	return e, nil
}

// maskOf returns the bitmask of a single alias.
func (e *estimator) maskOf(alias string) uint64 { return 1 << uint(e.aliasIdx[alias]) }

// aliasesOf expands a bitmask into alias names (FROM order).
func (e *estimator) aliasesOf(mask uint64) []string {
	var out []string
	for i := 0; i < len(e.aliases); i++ {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, e.aliases[i])
		}
	}
	return out
}

// gammaKey returns the canonical Γ key for a relation set.
func (e *estimator) gammaKey(mask uint64) string {
	return plan.CanonicalSet(e.aliasesOf(mask))
}

// GammaKeyFor exposes the canonical key construction for the sampling
// layer, which must produce Δ entries under identical keys.
func GammaKeyFor(aliases []string) string { return plan.CanonicalSet(aliases) }

// estimateLeaf estimates rows of one FROM table after its local filters.
func (e *estimator) estimateLeaf(tr sql.TableRef) float64 {
	// Γ override: a validated singleton.
	if rows, ok := e.gamma.Get(plan.CanonicalSet([]string{tr.Alias})); ok {
		return rows
	}
	filters := e.q.SelectionsOn(tr.Alias)
	// Profile override (System B leaf sampling).
	if e.profile.LeafRows != nil {
		if rows, ok := e.profile.LeafRows(e.cat, tr.Name, tr.Alias, filters); ok {
			return rows
		}
	}
	base := float64(e.tables[tr.Alias].NumRows())
	sel := 1.0
	for _, f := range filters {
		sel *= e.selectionSel(tr.Name, f)
	}
	return base * sel
}

// selectionSel estimates one local predicate's selectivity from stats.
func (e *estimator) selectionSel(table string, f sql.Selection) float64 {
	cs := e.cat.ColumnStats(table, f.Col.Column)
	if cs == nil {
		return stats.DefaultEqSel
	}
	switch f.Op {
	case sql.OpEq:
		if e.profile.EqSel != nil {
			return e.profile.EqSel(cs, f.Value)
		}
		return cs.SelEquals(f.Value)
	case sql.OpNe:
		return cs.SelNotEquals(f.Value)
	case sql.OpLt:
		return cs.SelLess(f.Value) - cs.SelEquals(f.Value)
	case sql.OpLe:
		return cs.SelLess(f.Value)
	case sql.OpGt:
		return 1 - cs.NullFrac - cs.SelLess(f.Value)
	case sql.OpGe:
		return cs.SelGreater(f.Value)
	case sql.OpBetween:
		return cs.SelRange(f.Value, f.Value2)
	default:
		return stats.DefaultEqSel
	}
}

// joinSelectivity estimates one equi-join predicate's selectivity from
// the base-column statistics of its two sides. Combining this with the
// filtered leaf cardinalities is precisely the AVI assumption between
// selections and joins that the OTT exploits.
func (e *estimator) joinSelectivity(j sql.JoinPred) float64 {
	var leftCS, rightCS *stats.ColumnStats
	if tr, ok := e.q.TableByAlias(j.Left.Table); ok {
		leftCS = e.cat.ColumnStats(tr.Name, j.Left.Column)
	}
	if tr, ok := e.q.TableByAlias(j.Right.Table); ok {
		rightCS = e.cat.ColumnStats(tr.Name, j.Right.Column)
	}
	if e.profile.JoinSel != nil {
		return e.profile.JoinSel(leftCS, rightCS)
	}
	return e.cat.JoinSelectivity(leftCS, rightCS)
}

// card returns the cardinality estimate for a relation set: the Γ entry
// when the set has been validated, otherwise the product of filtered
// leaf cardinalities and the selectivities of every join predicate
// internal to the set (split-independent, AVI-consistent).
func (e *estimator) card(mask uint64) float64 {
	if c, ok := e.cardMemo[mask]; ok {
		return c
	}
	c := e.cardUncached(mask)
	e.cardMemo[mask] = c
	return c
}

func (e *estimator) cardUncached(mask uint64) float64 {
	if rows, ok := e.gamma.Get(e.gammaKey(mask)); ok {
		return clampRowEst(rows)
	}
	card := 1.0
	for i := 0; i < len(e.aliases); i++ {
		if mask&(1<<uint(i)) != 0 {
			card *= e.leafRows[i]
		}
	}
	for _, edge := range e.joins {
		if edge.mask&mask == edge.mask {
			card *= edge.sel
		}
	}
	return clampRowEst(card)
}

// clampRowEst floors cardinality estimates at one row, as PostgreSQL's
// clamp_row_est does. Without the floor, a (possibly noisy) sampled zero
// would make every operator above it estimate as free, erasing the cost
// differences between otherwise very different plans.
func clampRowEst(r float64) float64 {
	if r < 1 || math.IsNaN(r) {
		return 1
	}
	return r
}

// predsBetween returns the join predicates connecting two disjoint sets.
func (e *estimator) predsBetween(left, right uint64) []sql.JoinPred {
	var out []sql.JoinPred
	for _, edge := range e.joins {
		l := e.maskOf(edge.pred.Left.Table)
		r := e.maskOf(edge.pred.Right.Table)
		if l&left != 0 && r&right != 0 || l&right != 0 && r&left != 0 {
			out = append(out, edge.pred)
		}
	}
	return out
}

// connectedSet reports whether the relations in mask form a connected
// subgraph of the join graph. The DP only materializes connected
// subsets (as PostgreSQL does), falling back to cross products only
// when the whole query graph is disconnected.
func (e *estimator) connectedSet(mask uint64) bool {
	if mask == 0 {
		return false
	}
	start := mask & (-mask)
	seen := start
	frontier := start
	for frontier != 0 {
		next := uint64(0)
		for _, edge := range e.joins {
			if edge.mask&mask != edge.mask {
				continue
			}
			if edge.mask&seen != 0 && edge.mask&^seen != 0 {
				next |= edge.mask &^ seen
			}
		}
		seen |= next
		frontier = next
	}
	return seen == mask
}

// queryConnected reports whether the whole join graph is connected.
func (e *estimator) queryConnected() bool {
	full := uint64(1)<<uint(len(e.aliases)) - 1
	return e.connectedSet(full)
}

// connected reports whether at least one join predicate links the sets.
func (e *estimator) connected(left, right uint64) bool {
	for _, edge := range e.joins {
		l := e.maskOf(edge.pred.Left.Table)
		r := e.maskOf(edge.pred.Right.Table)
		if l&left != 0 && r&right != 0 || l&right != 0 && r&left != 0 {
			return true
		}
	}
	return false
}

// clampRows keeps estimates usable by cost formulas: sampling may have
// validated a cardinality of zero (the OTT's empty joins); the cost
// model treats those as (near) free, which is what floats empty joins to
// the bottom of the plan.
func clampRows(r float64) float64 {
	if r < 0 || math.IsNaN(r) {
		return 0
	}
	return r
}

// aliasSchema builds the schema a scan of tr exposes (columns
// re-attributed to the alias).
func aliasSchema(t *storage.Table, alias string) *rel.Schema {
	cols := make([]rel.Column, len(t.Schema().Columns))
	for i, c := range t.Schema().Columns {
		c.Table = alias
		cols[i] = c
	}
	return rel.NewSchema(cols...)
}
