package optimizer

import (
	"fmt"
	"math"
	"math/bits"

	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/stats"
	"reopt/internal/storage"
)

// Planner is the planning state of one query, built once by Prepare and
// reused by every round of Algorithm 1. It reads the query through its
// graph (sql.Graph): relation sets are bitmasks over the FROM-list
// position, a leaf's filters and a join predicate's bits and canonical
// rendering are the graph's, so the planner names every set and
// predicate exactly as the validation engine, which reads the same graph,
// does. Everything else that depends only on the query and the catalog
// statistics (access paths, selectivities, adjacency) is resolved at
// Prepare, and the dynamic program keeps its table across Plan calls,
// re-pricing it under the current Γ (DESIGN.md §10). Validated
// cardinalities in Γ take precedence over statistics at every
// granularity (leaf selections and join results alike). A Planner is
// not safe for concurrent use.
type Planner struct {
	o     *Optimizer
	g     *sql.Graph
	gamma *Gamma

	leaves []leaf
	edges  []joinEdge

	// cells is the dense DP table indexed by mask; nil when the query is
	// planned by the randomized search.
	cells []cell

	predBuf []string
}

// leaf is one FROM entry with its Γ-independent access-path choice.
type leaf struct {
	ref      sql.TableRef
	table    *storage.Table
	filters  []sql.Selection
	schema   *rel.Schema
	statRows float64 // post-selection estimate from statistics alone
	rows     float64 // the validated singleton when Γ has one, else statRows
	adj      uint64  // aliases sharing a join predicate with this one

	access   plan.AccessKind
	indexCol string
	cost     float64
	fp       string
}

// joinEdge is one join predicate of the graph with what pricing adds:
// its selectivity and the indexes on its canonical endpoints.
type joinEdge struct {
	*sql.Edge
	sel        float64
	lIdx, rIdx *storage.Index // on Canon.Left's and Canon.Right's columns
}

// cell is the DP's answer for one relation set: 40 bytes of scalars, so
// the table for DefaultDPThreshold = 12 relations is 160 KiB and a
// 6-table chain's is 2.5 KiB. Plan nodes exist only for the winning
// tree, built by backtracking left/kind/probe.
type cell struct {
	rows  float64       // cardinality of the set under the current Γ
	cost  float64       // cheapest plan producing it
	left  uint64        // outer side of the winning split (0 for a leaf)
	nbr   uint64        // aliases adjacent to any member of the set
	kind  plan.JoinKind // winning physical operator
	probe int16         // edge driving an index nested loop
	ok    bool          // the DP materializes this subset
}

// Prepare builds the planning state for the query of g. gamma may be
// nil (start from an empty Γ) or hold validated cardinalities for the
// query's FROM list — a Γ made for another FROM list is an error; from
// here on the planner owns it, and entries must arrive through
// Planner.Merge so the validated leaves stay in step. A graph with an
// Err — a FROM list longer than sql.MaxTables, or a join predicate that
// does not join two distinct FROM entries — is refused with it.
func (o *Optimizer) Prepare(g *sql.Graph, gamma *Gamma) (*Planner, error) {
	return o.prepare(g, gamma, len(g.Rels) <= o.cfg.DPThreshold)
}

func (o *Optimizer) prepare(g *sql.Graph, gamma *Gamma, dense bool) (*Planner, error) {
	if g.Err != nil {
		return nil, fmt.Errorf("optimizer: %w", g.Err)
	}
	n := len(g.Rels)
	if n == 0 {
		return nil, fmt.Errorf("optimizer: query has no tables")
	}
	if gamma == nil {
		gamma = NewGamma(g.Query)
	} else if !gamma.madeFor(g.Query) {
		return nil, fmt.Errorf("optimizer: Γ was made for a different FROM list")
	}
	p := &Planner{o: o, g: g, gamma: gamma, leaves: make([]leaf, n), edges: make([]joinEdge, len(g.Edges))}
	for i, tr := range g.Query.Tables {
		tbl, err := o.cat.Table(tr.Name)
		if err != nil {
			return nil, err
		}
		lf := &p.leaves[i]
		*lf = leaf{ref: tr, table: tbl, filters: g.Rels[i].Filters, schema: aliasSchema(tbl, tr.Alias)}
		lf.statRows = o.leafRows(lf)
		lf.rows = lf.statRows
		o.chooseScan(lf)
	}
	for i := range g.Edges {
		ge := &g.Edges[i]
		cl, cr := &p.leaves[bits.TrailingZeros64(ge.L)], &p.leaves[bits.TrailingZeros64(ge.R)]
		// Selectivity is estimated with the sides as written: the estimate
		// is not symmetric to the last bit.
		l, r := cl, cr
		if ge.Pred != ge.Canon {
			l, r = cr, cl
		}
		p.edges[i] = joinEdge{
			Edge: ge, sel: o.joinSelectivity(l.ref.Name, r.ref.Name, ge.Pred),
			lIdx: cl.table.Index(ge.Canon.Left.Column), rIdx: cr.table.Index(ge.Canon.Right.Column),
		}
		cl.adj |= ge.R
		cr.adj |= ge.L
	}
	for mask, rows := range gamma.m {
		if mask&(mask-1) == 0 {
			p.leaves[bits.TrailingZeros64(mask)].rows = rows
		}
	}
	if dense {
		p.cells = make([]cell, uint64(1)<<uint(n))
		for s := uint64(1); s < uint64(len(p.cells)); s++ {
			p.cells[s].nbr = p.cells[s&(s-1)].nbr | p.leaves[bits.TrailingZeros64(s)].adj
		}
		// With a connected join graph only connected subsets get a cell
		// (as PostgreSQL does); otherwise every subset does, and cross
		// products fill the gaps.
		connected := p.connectedSet(uint64(len(p.cells)) - 1)
		for s := uint64(1); s < uint64(len(p.cells)); s++ {
			p.cells[s].ok = s&(s-1) == 0 || !connected || p.connectedSet(s)
		}
	}
	return p, nil
}

// Gamma returns the validated-cardinality store the planner plans under.
func (p *Planner) Gamma() *Gamma { return p.gamma }

// SetRows is one entry of a Δ: a relation set as its mask over
// Query.Tables positions, its canonical key (plan.CanonicalSet) for the
// readers that print or serialize it, its estimated cardinality, and the
// raw sample count behind that estimate.
type SetRows struct {
	Mask       uint64
	Key        string
	Rows       float64
	SampleRows int64
}

// Merge folds the estimates Δ into Γ (line 10 of Algorithm 1) and
// returns the number of sets that were new — zero new sets is exactly
// the "covered" condition of Theorem 1.
func (p *Planner) Merge(delta []SetRows) (added int) {
	for _, d := range delta {
		if _, ok := p.gamma.m[d.Mask]; !ok {
			added++
		}
		p.gamma.Set(d.Mask, d.Rows)
		if d.Mask&(d.Mask-1) == 0 {
			p.leaves[bits.TrailingZeros64(d.Mask)].rows = p.gamma.m[d.Mask]
		}
	}
	return added
}

// StatCardinality returns the statistics-only estimate (no Γ) for a
// relation set — what conservative blending mixes a sampled estimate
// with.
func (p *Planner) StatCardinality(mask uint64) float64 { return p.estimate(mask, false) }

// card returns the cardinality estimate for a relation set: the Γ entry
// when the set has been validated, otherwise the product of filtered
// leaf cardinalities and the selectivities of every join predicate
// internal to the set (split-independent, AVI-consistent).
func (p *Planner) card(mask uint64) float64 {
	if rows, ok := p.gamma.m[mask]; ok {
		return clampRowEst(rows)
	}
	return p.estimate(mask, true)
}

func (p *Planner) estimate(mask uint64, validatedLeaves bool) float64 {
	card := 1.0
	for i := range p.leaves {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if validatedLeaves {
			card *= p.leaves[i].rows
		} else {
			card *= p.leaves[i].statRows
		}
	}
	for i := range p.edges {
		if e := &p.edges[i]; (e.L|e.R)&mask == e.L|e.R {
			card *= e.sel
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

// leafRows estimates rows of one FROM table after its local filters,
// from statistics (or the profile's leaf sampling) alone.
func (o *Optimizer) leafRows(lf *leaf) float64 {
	if o.cfg.Profile.LeafRows != nil {
		if rows, ok := o.cfg.Profile.LeafRows(o.cat, lf.ref.Name, lf.ref.Alias, lf.filters); ok {
			return rows
		}
	}
	sel := 1.0
	for _, f := range lf.filters {
		sel *= o.selectionSel(lf.ref.Name, f)
	}
	return float64(lf.table.NumRows()) * sel
}

// chooseScan picks the cheapest access path for a leaf: the sequential
// scan, or an index scan on the column of one of its filters. Scan costs
// do not depend on Γ (only the output estimate does), so the choice holds
// for the planner's lifetime.
func (o *Optimizer) chooseScan(lf *leaf) {
	lf.access, lf.indexCol = plan.SeqScan, ""
	lf.cost, _ = o.accessCost(lf, plan.SeqScan, "")
	for _, f := range lf.filters {
		if c, ok := o.accessCost(lf, plan.IndexScan, f.Col.Column); ok && c < lf.cost {
			lf.access, lf.indexCol, lf.cost = plan.IndexScan, f.Col.Column, c
		}
	}
	lf.fp = (&plan.ScanNode{Alias: lf.ref.Alias, Table: lf.ref.Name, Filters: lf.filters,
		Access: lf.access, IndexColumn: lf.indexCol}).Fingerprint()
}

// accessCost prices one access path of a leaf, for chooseScan and Recost:
// a sequential scan filters every row; an index scan on col fetches the
// rows of the first equality filter on col and applies the other filters
// to them; ok is false unless col has both an index and such a filter.
func (o *Optimizer) accessCost(lf *leaf, access plan.AccessKind, col string) (cost float64, ok bool) {
	baseRows := float64(lf.table.NumRows())
	if access != plan.IndexScan {
		return o.model.SeqScan(float64(lf.table.NumPages()), baseRows, len(lf.filters)), true
	}
	if idx := lf.table.Index(col); idx != nil {
		for _, f := range lf.filters {
			if f.Op == sql.OpEq && f.Col.Column == col {
				matchRows := baseRows * o.selectionSel(lf.ref.Name, f)
				return o.model.IndexProbe(idx.Height(), matchRows, len(lf.filters)-1), true
			}
		}
	}
	return 0, false
}

// selectionSel estimates one local predicate's selectivity from stats.
func (o *Optimizer) selectionSel(table string, f sql.Selection) float64 {
	cs := o.cat.ColumnStats(table, f.Col.Column)
	if cs == nil {
		return stats.DefaultEqSel
	}
	switch f.Op {
	case sql.OpEq:
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
func (o *Optimizer) joinSelectivity(leftTable, rightTable string, j sql.JoinPred) float64 {
	leftCS := o.cat.ColumnStats(leftTable, j.Left.Column)
	rightCS := o.cat.ColumnStats(rightTable, j.Right.Column)
	if o.cfg.Profile.JoinSel != nil {
		return o.cfg.Profile.JoinSel(leftCS, rightCS)
	}
	return o.cat.JoinSelectivity(leftCS, rightCS)
}

// connectedSet reports whether the relations in s form a connected
// subgraph of the join graph.
func (p *Planner) connectedSet(s uint64) bool {
	seen := s & -s
	for frontier := seen; frontier != 0; {
		frontier = p.cells[frontier].nbr & s &^ seen
		seen |= frontier
	}
	return seen == s
}

// eachSplit is the DP's one enumeration of a subset's splits, and its
// order is the tie-breaking contract: candidates are compared under
// strict less-than, so among equal-cost splits the first one enumerated
// wins and every plan is a function of this order. Pass 1 yields the
// splits joined by at least one predicate; pass 2 (any split, i.e. a
// cross product) runs only for a subset pass 1 left empty.
func (p *Planner) eachSplit(s uint64, f func(sub, other uint64)) {
	for pass := 0; pass < 2; pass++ {
		found := false
		for sub := (s - 1) & s; sub > 0; sub = (sub - 1) & s {
			other := s &^ sub
			if !p.o.cfg.BushyTrees && sub&(sub-1) != 0 && other&(other-1) != 0 {
				continue
			}
			if pass == 0 && p.cells[sub].nbr&other == 0 {
				continue
			}
			if !p.cells[sub].ok || !p.cells[other].ok {
				continue
			}
			found = true
			f(sub, other)
		}
		if found {
			return
		}
	}
}

// reprice fills the DP table under the current Γ. A cell depends only on
// the cardinalities and cells of its subsets, and ascending mask order
// visits every subset before its supersets.
func (p *Planner) reprice() {
	for s := uint64(1); s < uint64(len(p.cells)); s++ {
		if !p.cells[s].ok {
			continue
		}
		c := &p.cells[s]
		c.rows = p.card(s)
		if s&(s-1) == 0 {
			c.cost = p.leaves[bits.TrailingZeros64(s)].cost
			continue
		}
		first := true
		p.eachSplit(s, func(sub, other uint64) {
			l, r := &p.cells[sub], &p.cells[other]
			cost, kind, probe := p.priceJoin(sub, other, l.cost, r.cost, l.rows, r.rows, c.rows)
			if first || cost < c.cost {
				c.cost, c.left, c.kind, c.probe = cost, sub, kind, int16(probe)
				first = false
			}
		})
	}
}

// crossing counts the join predicates connecting two disjoint sets.
func (p *Planner) crossing(a, b uint64) (n int) {
	for i := range p.edges {
		if p.edges[i].Crosses(a, b) {
			n++
		}
	}
	return n
}

// priceJoin returns the cheapest physical join of two priced inputs.
// Operators are tried in a fixed order under strict less-than, so ties
// keep the earlier candidate: hash, merge, nested loop, then one index
// nested loop per probe-able predicate in query order.
func (p *Planner) priceJoin(lm, rm uint64, lcost, rcost, lrows, rrows, outRows float64) (cost float64, kind plan.JoinKind, probe int) {
	npreds := p.crossing(lm, rm)
	nl := p.operatorCost(plan.NestedLoop, lcost, rcost, lrows, rrows, npreds, outRows)
	if npreds == 0 {
		return nl, plan.NestedLoop, -1
	}
	cost, kind, probe = p.operatorCost(plan.HashJoin, lcost, rcost, lrows, rrows, npreds, outRows), plan.HashJoin, -1
	if c := p.operatorCost(plan.MergeJoin, lcost, rcost, lrows, rrows, npreds, outRows); c < cost {
		cost, kind = c, plan.MergeJoin
	}
	if nl < cost {
		cost, kind = nl, plan.NestedLoop
	}
	// Index nested-loop: the inner side must be a single base relation
	// with an index on one of the join columns.
	if rm&(rm-1) != 0 {
		return cost, kind, probe
	}
	for i := range p.edges {
		if !p.edges[i].Crosses(lm, rm) {
			continue
		}
		if pc, _, ok := p.probeCost(&p.edges[i], rm, npreds); ok {
			if c := p.operatorCost(plan.IndexNestedLoop, lcost, pc, lrows, rrows, npreds, outRows); c < cost {
				cost, kind, probe = c, plan.IndexNestedLoop, i
			}
		}
	}
	return cost, kind, probe
}

// operatorCost prices one physical join of two priced inputs, for
// priceJoin and Recost. The inner input of an index nested loop is one
// index probe, so its rcost is probeCost's.
func (p *Planner) operatorCost(kind plan.JoinKind, lcost, rcost, lrows, rrows float64, npreds int, outRows float64) float64 {
	m := p.o.model
	switch kind {
	case plan.HashJoin:
		return m.HashJoin(lcost, rcost, lrows, rrows, npreds, outRows)
	case plan.MergeJoin:
		return m.MergeJoin(lcost, rcost, lrows, rrows, outRows)
	case plan.IndexNestedLoop:
		return m.IndexNestLoop(lcost, lrows, rcost, outRows)
	}
	return m.NestLoop(lcost, rcost, lrows, rrows, npreds, outRows)
}

// probeCost prices one index probe into the single relation rm through
// its column of predicate e, when that column is indexed.
func (p *Planner) probeCost(e *joinEdge, rm uint64, npreds int) (cost float64, col string, ok bool) {
	idx, col := e.rIdx, e.Canon.Right.Column
	if e.R != rm {
		idx, col = e.lIdx, e.Canon.Left.Column
	}
	if idx == nil {
		return 0, "", false
	}
	// Matches per probe before residual predicates: uniform share of
	// the inner table per distinct join key.
	lf := &p.leaves[bits.TrailingZeros64(rm)]
	matchPerProbe := 0.0
	if nd := float64(idx.NumDistinct()); nd > 0 {
		matchPerProbe = float64(lf.table.NumRows()) / nd
	}
	return p.o.model.IndexProbe(idx.Height(), matchPerProbe, len(lf.filters)+npreds-1), col, true
}

// Plan returns the cheapest plan under the current Γ — the
// GetPlanFromOptimizer(Γ) of Algorithm 1 — with its fingerprint and
// join sets memoized on the plan.
func (p *Planner) Plan() (*plan.Plan, error) {
	sets := make([]uint64, 0, len(p.leaves))
	var root plan.Node
	var fp string
	if p.cells != nil {
		p.reprice()
		root, fp = p.build(uint64(len(p.cells))-1, &sets)
	} else {
		_, root, fp = p.leftDeep(p.searchRandomized(), &sets)
	}
	if len(p.g.Query.GroupBy) > 0 {
		agg, err := p.addAggregate(root)
		if err != nil {
			return nil, err
		}
		root, fp = agg, plan.AggregateFingerprint(agg.GroupBy, fp)
	}
	return plan.Memoized(root, p.g.Query, fp, sets), nil
}

// build materializes the winning tree of subset s by backtracking the
// DP table, returning the node and its fingerprint.
func (p *Planner) build(s uint64, sets *[]uint64) (plan.Node, string) {
	if s&(s-1) == 0 {
		i := bits.TrailingZeros64(s)
		lf := &p.leaves[i]
		return p.scan(i, lf.access, lf.indexCol, lf.cost), lf.fp
	}
	c := &p.cells[s]
	left, lfp := p.build(c.left, sets)
	return p.join(c.left, s&^c.left, left, lfp, c.kind, int(c.probe), c.cost, sets)
}

func (p *Planner) scan(i int, access plan.AccessKind, indexCol string, cost float64) *plan.ScanNode {
	lf := &p.leaves[i]
	return &plan.ScanNode{
		Alias:       lf.ref.Alias,
		Table:       lf.ref.Name,
		Filters:     lf.filters,
		Access:      access,
		IndexColumn: indexCol,
		OutSchema:   lf.schema,
		Rows:        p.card(1 << uint(i)),
		CostVal:     cost,
	}
}

// join materializes one chosen physical join over an already built
// outer input. The inner input is the winning subtree of rm — or, for
// an index nested loop, an index scan of the single inner relation
// priced as one probe.
func (p *Planner) join(lm, rm uint64, left plan.Node, lfp string, kind plan.JoinKind, probe int, cost float64, sets *[]uint64) (plan.Node, string) {
	var right plan.Node
	var rfp string
	// Predicates in query order, except that an index nested loop puts
	// the predicate driving the lookup first (once, as a value).
	var preds []sql.JoinPred
	npreds := p.crossing(lm, rm)
	if npreds > 0 {
		preds = make([]sql.JoinPred, 0, npreds)
	}
	strs := p.predBuf[:0]
	if kind == plan.IndexNestedLoop {
		e := &p.edges[probe]
		pc, col, _ := p.probeCost(e, rm, npreds)
		inner := p.scan(bits.TrailingZeros64(rm), plan.IndexScan, col, pc)
		right, rfp = inner, inner.Fingerprint()
		preds, strs = append(preds, e.Pred), append(strs, e.Key)
	} else {
		right, rfp = p.build(rm, sets)
	}
	for i := range p.edges {
		e := &p.edges[i]
		if !e.Crosses(lm, rm) || kind == plan.IndexNestedLoop && e.Pred == p.edges[probe].Pred {
			continue
		}
		preds, strs = append(preds, e.Pred), append(strs, e.Key)
	}
	p.predBuf = strs
	*sets = append(*sets, lm|rm)
	return &plan.JoinNode{
		Kind:      kind,
		Left:      left,
		Right:     right,
		Preds:     preds,
		OutSchema: left.Schema().Concat(right.Schema()),
		Rows:      p.card(lm | rm),
		CostVal:   cost,
	}, plan.JoinFingerprint(kind, strs, lfp, rfp)
}

// SearchSpaceSize returns the number of distinct join trees (distinct as
// global transformations, i.e. counting unordered split hierarchies) the
// DP would consider for the query — the N of the paper's Theorem 4. The
// count saturates at math.MaxFloat64 for very large queries.
func (o *Optimizer) SearchSpaceSize(q *sql.Query) (float64, error) {
	p, err := o.prepare(sql.NewGraph(q), nil, true)
	if err != nil {
		return 0, err
	}
	trees := make([]float64, len(p.cells))
	for s := uint64(1); s < uint64(len(p.cells)); s++ {
		if !p.cells[s].ok {
			continue
		}
		if s&(s-1) == 0 {
			trees[s] = 1
			continue
		}
		p.eachSplit(s, func(sub, other uint64) {
			if sub > other {
				return // count unordered splits once
			}
			trees[s] += trees[sub] * trees[other]
			if math.IsInf(trees[s], 1) {
				trees[s] = math.MaxFloat64
			}
		})
	}
	return trees[len(trees)-1], nil
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
