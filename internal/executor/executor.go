// Package executor evaluates physical plans. Run drives Volcano-style
// iterators over the base tables for Session.Execute, mid-query
// re-optimization, cost-unit calibration and ExplainAnalyze; tests bind
// samples through Options.Binder to make it the oracle of Prepared.Count,
// the sampling estimator's count-only engine (skeleton.go). Every
// operator maintains instrumentation counters (pages read sequentially
// and randomly, tuples and index entries processed, operator evaluations)
// in the cost model's currency, and per-node output counts, which
// ExplainAnalyze prints.
package executor

import (
	"context"
	"fmt"
	"sort"
	"time"

	"reopt/internal/catalog"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
)

// Counters accumulate the physical work a run performed, in the units of
// the cost model.
type Counters struct {
	SeqPages      int64
	RandPages     int64
	Tuples        int64
	IndexTuples   int64
	OperatorEvals int64
}

// Add folds o into c.
func (c *Counters) Add(o Counters) {
	c.SeqPages += o.SeqPages
	c.RandPages += o.RandPages
	c.Tuples += o.Tuples
	c.IndexTuples += o.IndexTuples
	c.OperatorEvals += o.OperatorEvals
}

// Result is the outcome of executing a plan.
type Result struct {
	// Rows holds the output rows (projected per the query) unless the
	// run was executed in count-only mode.
	Rows []rel.Row
	// Count is the number of output rows (always set).
	Count int64
	// Duration is the wall-clock execution time.
	Duration time.Duration
	// Counters aggregates physical work across all operators.
	Counters Counters
	// NodeRows maps each plan node to the number of rows it emitted —
	// the per-subtree cardinalities the sampling estimator consumes.
	NodeRows map[plan.Node]int64
}

// Options tune a run.
type Options struct {
	// CountOnly discards output rows, returning only the count; joins
	// and filters still run in full.
	CountOnly bool
	// Binder maps a catalog table name to the storage table to scan.
	// nil scans the base tables; tests bind samples (catalog.Sample) to
	// check the sampling engine's counts against Volcano's.
	Binder func(name string) (*storage.Table, error)
}

// Run executes the plan against the catalog.
func Run(p *plan.Plan, cat *catalog.Catalog, opts Options) (*Result, error) {
	return RunCtx(context.Background(), p, cat, opts)
}

// RunCtx is Run with cancellation. The Volcano loop is error-free by
// construction, so cancellation propagates by starvation: every counted
// wrapper polls ctx once per 1024 rows it emits, and once the context is
// done it reports exhaustion, which unwinds the whole pipeline — blocking
// build phases (hash-table builds, merge-sort materializations) drain
// through counted children, so they stop too. RunCtx then discards the
// truncated result and returns ctx.Err(). The abort latency is bounded
// by 1024 emitted rows per operator plus at most one filtered scan pass.
func RunCtx(ctx context.Context, p *plan.Plan, cat *catalog.Catalog, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Binder == nil {
		opts.Binder = cat.Table
	}
	res := &Result{NodeRows: make(map[plan.Node]int64)}
	ex := &executor{ctx: ctx, cat: cat, opts: opts, res: res}
	start := time.Now()
	it, err := ex.build(p.Root)
	if err != nil {
		return nil, err
	}
	project, err := projector(p)
	if err != nil {
		return nil, err
	}
	// Group-by queries emit their (keys, count) rows directly; a bare
	// COUNT(*) collapses to a single row.
	grouped := len(p.Query.GroupBy) > 0
	for {
		row, ok := it.next()
		if !ok {
			break
		}
		res.Count++
		if !opts.CountOnly && (grouped || !p.Query.CountStar) {
			res.Rows = append(res.Rows, project(row))
		}
	}
	if ex.cancelled || ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if p.Query.CountStar && !grouped && !opts.CountOnly {
		res.Rows = []rel.Row{{rel.Int(res.Count)}}
	}
	if err := orderAndLimit(p, res, opts); err != nil {
		return nil, err
	}
	res.Duration = time.Since(start)
	return res, nil
}

// orderAndLimit applies ORDER BY and LIMIT to the collected output.
func orderAndLimit(p *plan.Plan, res *Result, opts Options) error {
	q := p.Query
	if len(q.OrderBy) > 0 && !opts.CountOnly {
		schema := outputSchema(p)
		idx := make([]int, len(q.OrderBy))
		for i, k := range q.OrderBy {
			j, err := schema.IndexOf(k.Col.Table, k.Col.Column)
			if err != nil {
				return fmt.Errorf("executor: ORDER BY %s: %w", k.Col, err)
			}
			idx[i] = j
		}
		keys := q.OrderBy
		sort.SliceStable(res.Rows, func(a, b int) bool {
			for i, j := range idx {
				c := res.Rows[a][j].Compare(res.Rows[b][j])
				if keys[i].Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
	}
	if q.Limit > 0 {
		if int64(q.Limit) < res.Count {
			res.Count = int64(q.Limit)
		}
		if len(res.Rows) > q.Limit {
			res.Rows = res.Rows[:q.Limit]
		}
	}
	return nil
}

// outputSchema describes the rows Run returns for ordering purposes.
func outputSchema(p *plan.Plan) *rel.Schema {
	q := p.Query
	if len(q.GroupBy) > 0 || len(q.Projection) == 0 {
		return p.Root.Schema()
	}
	schema := p.Root.Schema()
	idx := make([]int, 0, len(q.Projection))
	for _, c := range q.Projection {
		if j, err := schema.IndexOf(c.Table, c.Column); err == nil {
			idx = append(idx, j)
		}
	}
	return schema.Project(idx)
}

// projector builds the output projection function for the plan.
func projector(p *plan.Plan) (func(rel.Row) rel.Row, error) {
	q := p.Query
	if q.CountStar || len(q.Projection) == 0 {
		return func(r rel.Row) rel.Row { return r.Clone() }, nil
	}
	schema := p.Root.Schema()
	idx := make([]int, len(q.Projection))
	for i, c := range q.Projection {
		j, err := schema.IndexOf(c.Table, c.Column)
		if err != nil {
			return nil, fmt.Errorf("executor: projection %s: %w", c, err)
		}
		idx[i] = j
	}
	return func(r rel.Row) rel.Row {
		out := make(rel.Row, len(idx))
		for i, j := range idx {
			out[i] = r[j]
		}
		return out
	}, nil
}

type executor struct {
	ctx  context.Context
	cat  *catalog.Catalog
	opts Options
	res  *Result
	// cancelled records that a counted wrapper observed ctx done and
	// began reporting exhaustion; RunCtx checks it after the drain so a
	// truncated result is never returned as a success.
	cancelled bool
}

// iterator is the Volcano pull interface. Construction validates
// everything that can fail, so next is error-free.
type iterator interface {
	next() (rel.Row, bool)
}

// arenaSlabValues sizes the backing slabs join iterators allocate their
// output rows from: large enough to amortize one slab allocation over
// hundreds of typical join rows, small enough that a query's final
// partially-filled slab wastes little.
const arenaSlabValues = 4096

// rowArena carves output rows — a scan's materialized rows, a join's
// concatenations — out of large value slabs, replacing one heap
// allocation per output row. Rows stay valid
// indefinitely — the slab lives as long as any row carved from it, and
// a fresh slab starts whenever the current one is full — so consumers
// that retain rows (materializing joins, aggregates, Run's output) are
// unaffected. The full-capacity slice expression keeps an append on a
// returned row from stomping its right neighbor. One arena serves one
// iterator: arenas are not safe for concurrent use, matching the
// single-threaded Volcano loop.
type rowArena struct {
	slab []rel.Value
}

// alloc returns an n-value arena-backed row for the caller to fill.
func (a *rowArena) alloc(n int) rel.Row {
	if cap(a.slab)-len(a.slab) < n {
		a.slab = make([]rel.Value, 0, max(arenaSlabValues, n))
	}
	off := len(a.slab)
	a.slab = a.slab[:off+n]
	return rel.Row(a.slab[off : off+n : off+n])
}

// concat returns l followed by r as an arena-backed row.
func (a *rowArena) concat(l, r rel.Row) rel.Row {
	row := a.alloc(len(l) + len(r))
	copy(row[copy(row, l):], r)
	return row
}

// counted wraps an iterator to record per-node output counts. Rows are
// tallied in a local counter and flushed into the NodeRows map when the
// iterator is exhausted, replacing a map increment per tuple with one
// map write per node (every operator in Run drains its inputs fully, so
// exhaustion is always reached). It is also the executor's cancellation
// point: every 1024 emitted rows it polls the run's context, and once
// the context is done it reports exhaustion — consumers (including
// blocking build phases draining a child) then stop promptly, and RunCtx
// turns the truncated drain into ctx.Err().
type counted struct {
	inner iterator
	node  plan.Node
	ex    *executor
	n     int64
}

func (c *counted) next() (rel.Row, bool) {
	if c.ex.cancelled {
		return nil, false
	}
	row, ok := c.inner.next()
	if ok {
		c.n++
		if c.n&1023 == 0 && c.ex.ctx.Err() != nil {
			c.ex.cancelled = true
			return nil, false
		}
		return row, true
	}
	c.ex.res.NodeRows[c.node] += c.n
	c.n = 0
	return nil, false
}

func (ex *executor) build(n plan.Node) (iterator, error) {
	var it iterator
	var err error
	switch t := n.(type) {
	case *plan.ScanNode:
		it, err = ex.buildScan(t)
	case *plan.JoinNode:
		it, err = ex.buildJoin(t)
	case *plan.AggregateNode:
		it, err = ex.buildAggregate(t)
	default:
		err = fmt.Errorf("executor: unknown node type %T: %w", n, ErrUnsupportedPlan)
	}
	if err != nil {
		return nil, err
	}
	return &counted{inner: it, node: n, ex: ex}, nil
}

// filterIdx precomputes filter column positions for a schema.
func filterIdx(schema *rel.Schema, filters []sql.Selection) ([]int, error) {
	idx := make([]int, len(filters))
	for i, f := range filters {
		j, err := schema.IndexOf(f.Col.Table, f.Col.Column)
		if err != nil {
			return nil, err
		}
		idx[i] = j
	}
	return idx, nil
}

// passes evaluates filters on row id of a table's columns, in place,
// counting one operator evaluation per filter tried.
func passes(cs *storage.ColStore, id int, filters []sql.Selection, idx []int, ctr *Counters) bool {
	for i, f := range filters {
		ctr.OperatorEvals++
		if !sql.EvalSelection(cs.Col(idx[i]).Value(id), f) {
			return false
		}
	}
	return true
}

// --- Sequential / index scans ---

// Scans evaluate their filters on the table's columns and materialize
// only the rows that pass, into the scan's arena.

type seqScanIter struct {
	table   *storage.Table
	filters []sql.Selection
	fidx    []int
	ctr     *Counters
	pos     int
	page    int
	arena   rowArena
}

func (s *seqScanIter) next() (rel.Row, bool) {
	cs := s.table.ColData()
	for s.pos < cs.NumRows() {
		id := s.pos
		if p := s.table.PageOfRow(id); id == 0 || p != s.page {
			s.page = p
			s.ctr.SeqPages++
		}
		s.pos++
		s.ctr.Tuples++
		if passes(cs, id, s.filters, s.fidx, s.ctr) {
			return materialize(&s.arena, s.table, id), true
		}
	}
	return nil, false
}

// materialize reads row id of t into an arena-backed row.
func materialize(a *rowArena, t *storage.Table, id int) rel.Row {
	row := a.alloc(t.Schema().Len())
	t.ColData().ReadRow(row, id)
	return row
}

type indexScanIter struct {
	table    *storage.Table
	ids      []int
	residual []sql.Selection
	fidx     []int
	ctr      *Counters
	pos      int
	arena    rowArena
}

func (s *indexScanIter) next() (rel.Row, bool) {
	cs := s.table.ColData()
	for s.pos < len(s.ids) {
		id := s.ids[s.pos]
		s.pos++
		s.ctr.IndexTuples++
		s.ctr.RandPages++ // heap fetch
		s.ctr.Tuples++
		if passes(cs, id, s.residual, s.fidx, s.ctr) {
			return materialize(&s.arena, s.table, id), true
		}
	}
	return nil, false
}

func (ex *executor) buildScan(s *plan.ScanNode) (iterator, error) {
	t, err := ex.opts.Binder(s.Table)
	if err != nil {
		return nil, err
	}
	// The plan's schema is aliased; rows come straight from the table,
	// which has identical column order, so no re-mapping is needed.
	fidx, err := filterIdx(s.OutSchema, s.Filters)
	if err != nil {
		return nil, err
	}
	if s.Access == plan.IndexScan {
		idx := t.Index(s.IndexColumn)
		if idx != nil {
			var driving *sql.Selection
			var residual []sql.Selection
			var ridx []int
			for i, f := range s.Filters {
				if driving == nil && f.Op == sql.OpEq && f.Col.Column == s.IndexColumn {
					f := f
					driving = &f
					continue
				}
				residual = append(residual, f)
				ridx = append(ridx, fidx[i])
			}
			if driving != nil {
				ex.res.Counters.RandPages += int64(idx.Height())
				return &indexScanIter{
					table:    t,
					ids:      idx.Lookup(driving.Value),
					residual: residual,
					fidx:     ridx,
					ctr:      &ex.res.Counters,
				}, nil
			}
		}
		// The plan wanted an index the bound table lacks (e.g. a test's
		// sample): degrade to a sequential scan, like a hinted system would.
	}
	return &seqScanIter{table: t, filters: s.Filters, fidx: fidx, ctr: &ex.res.Counters}, nil
}

// --- Joins ---

// predIdx precomputes, for a join, the (left position, right position)
// of each predicate relative to the two input schemas.
func predIdx(left, right *rel.Schema, preds []sql.JoinPred) (lidx, ridx []int, err error) {
	for _, p := range preds {
		l, lerr := left.IndexOf(p.Left.Table, p.Left.Column)
		r, rerr := right.IndexOf(p.Right.Table, p.Right.Column)
		if lerr != nil || rerr != nil {
			// The predicate may be written with sides swapped relative
			// to the plan's left/right inputs.
			l, lerr = left.IndexOf(p.Right.Table, p.Right.Column)
			r, rerr = right.IndexOf(p.Left.Table, p.Left.Column)
			if lerr != nil || rerr != nil {
				return nil, nil, fmt.Errorf("executor: cannot resolve join predicate %s: %w", p, ErrUnsupportedPlan)
			}
		}
		lidx = append(lidx, l)
		ridx = append(ridx, r)
	}
	return lidx, ridx, nil
}

func (ex *executor) buildJoin(j *plan.JoinNode) (iterator, error) {
	left, err := ex.build(j.Left)
	if err != nil {
		return nil, err
	}
	lidx, ridx, err := predIdx(j.Left.Schema(), j.Right.Schema(), j.Preds)
	if err != nil {
		return nil, err
	}
	switch j.Kind {
	case plan.HashJoin:
		right, err := ex.build(j.Right)
		if err != nil {
			return nil, err
		}
		return newHashJoin(left, right, lidx, ridx, &ex.res.Counters), nil
	case plan.MergeJoin:
		right, err := ex.build(j.Right)
		if err != nil {
			return nil, err
		}
		return newMergeJoin(left, right, lidx, ridx, &ex.res.Counters), nil
	case plan.IndexNestedLoop:
		return ex.buildIndexNL(j, left, lidx, ridx)
	default: // plan.NestedLoop
		right, err := ex.build(j.Right)
		if err != nil {
			return nil, err
		}
		// Materialize the inner side once; rescans replay it.
		return &nestLoopIter{
			left: left, inner: drain(right),
			lidx: lidx, ridx: ridx,
			ctr: &ex.res.Counters,
		}, nil
	}
}

type nestLoopIter struct {
	left       iterator
	inner      []rel.Row
	lidx, ridx []int
	ctr        *Counters
	arena      rowArena

	cur    rel.Row
	curOK  bool
	innerI int
}

func (n *nestLoopIter) next() (rel.Row, bool) {
	for {
		if !n.curOK {
			n.cur, n.curOK = n.left.next()
			if !n.curOK {
				return nil, false
			}
			n.innerI = 0
		}
		for n.innerI < len(n.inner) {
			r := n.inner[n.innerI]
			n.innerI++
			n.ctr.Tuples++
			if keysMatch(n.cur, n.lidx, r, n.ridx, n.ctr) {
				return n.arena.concat(n.cur, r), true
			}
		}
		n.curOK = false
	}
}

// --- Hash join ---

// hashGroup is one distinct build-side key within a bucket: rows whose
// key columns are pairwise Equal. Buckets chain groups so that 64-bit
// hash collisions degrade to an extra value-equality check, never to a
// wrong join result.
type hashGroup struct {
	key  rel.Row // build row holding the exemplar key values
	rows []rel.Row
}

type hashJoinIter struct {
	left       iterator
	lidx, ridx []int
	ctr        *Counters
	table      map[uint64][]hashGroup
	arena      rowArena

	cur     rel.Row
	matches []rel.Row
	matchI  int
}

// keysMatch is every join's key rule: l and r join when each key pair
// is Equal, so NULL never matches, not even NULL. A non-nil ctr is
// charged one OperatorEvals per pair compared.
func keysMatch(l rel.Row, lidx []int, r rel.Row, ridx []int, ctr *Counters) bool {
	for k := range lidx {
		if ctr != nil {
			ctr.OperatorEvals++
		}
		if !l[lidx[k]].Equal(r[ridx[k]]) {
			return false
		}
	}
	return true
}

// rowHasNull reports whether any key column is NULL; such a row can
// never match, so the hash and merge joins drop it before comparing.
func rowHasNull(row rel.Row, idx []int) bool {
	for _, i := range idx {
		if row[i].IsNull() {
			return true
		}
	}
	return false
}

func newHashJoin(left, right iterator, lidx, ridx []int, ctr *Counters) *hashJoinIter {
	h := &hashJoinIter{left: left, lidx: lidx, ridx: ridx, ctr: ctr,
		table: make(map[uint64][]hashGroup)}
	for {
		row, ok := right.next()
		if !ok {
			break
		}
		ctr.OperatorEvals++
		ctr.Tuples++
		if rowHasNull(row, ridx) {
			continue
		}
		hash := rel.HashRow(row, ridx)
		bucket := h.table[hash]
		placed := false
		for gi := range bucket {
			if keysMatch(bucket[gi].key, ridx, row, ridx, nil) {
				bucket[gi].rows = append(bucket[gi].rows, row)
				placed = true
				break
			}
		}
		if !placed {
			bucket = append(bucket, hashGroup{key: row, rows: []rel.Row{row}})
		}
		h.table[hash] = bucket
	}
	return h
}

func (h *hashJoinIter) next() (rel.Row, bool) {
	for {
		if h.matchI < len(h.matches) {
			r := h.matches[h.matchI]
			h.matchI++
			return h.arena.concat(h.cur, r), true
		}
		row, ok := h.left.next()
		if !ok {
			return nil, false
		}
		h.ctr.OperatorEvals++
		if rowHasNull(row, h.lidx) {
			continue
		}
		h.cur = row
		h.matches = nil
		h.matchI = 0
		for _, g := range h.table[rel.HashRow(row, h.lidx)] {
			if keysMatch(row, h.lidx, g.key, h.ridx, nil) {
				h.matches = g.rows
				break
			}
		}
	}
}

// drain pulls it to exhaustion and returns the rows it emitted.
func drain(it iterator) []rel.Row {
	var rows []rel.Row
	for {
		row, ok := it.next()
		if !ok {
			return rows
		}
		rows = append(rows, row)
	}
}

// replay emits rows an operator materialized in full (merge join,
// hash aggregate).
type replay struct {
	rows []rel.Row
	pos  int
}

func (r *replay) next() (rel.Row, bool) {
	if r.pos >= len(r.rows) {
		return nil, false
	}
	r.pos++
	return r.rows[r.pos-1], true
}

// --- Merge join ---

// newMergeJoin materializes and sorts both inputs on the join key, then
// merges equal-key groups. Output order follows the sort, as a real
// merge join's would.
func newMergeJoin(left, right iterator, lidx, ridx []int, ctr *Counters) *replay {
	lrows, rrows := drain(left), drain(right)
	cmpRows := func(l rel.Row, lidx []int, r rel.Row, ridx []int) int {
		for k := range lidx {
			if c := l[lidx[k]].Compare(r[ridx[k]]); c != 0 {
				return c
			}
		}
		return 0
	}
	ctr.OperatorEvals += int64(sortCostOps(len(lrows)) + sortCostOps(len(rrows)))
	sort.SliceStable(lrows, func(i, j int) bool { return cmpRows(lrows[i], lidx, lrows[j], lidx) < 0 })
	sort.SliceStable(rrows, func(i, j int) bool { return cmpRows(rrows[i], ridx, rrows[j], ridx) < 0 })
	cmpLR := func(l, r rel.Row) int { return cmpRows(l, lidx, r, ridx) }
	var arena rowArena
	var out []rel.Row
	i, j := 0, 0
	for i < len(lrows) && j < len(rrows) {
		ctr.OperatorEvals++
		c := cmpLR(lrows[i], rrows[j])
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Compare sorts NULL equal to NULL, but NULL keys never join.
			if rowHasNull(lrows[i], lidx) {
				i++
				continue
			}
			// Expand the equal-key group on both sides.
			i2 := i
			for i2 < len(lrows) && cmpLR(lrows[i2], rrows[j]) == 0 {
				i2++
			}
			j2 := j
			for j2 < len(rrows) && cmpLR(lrows[i], rrows[j2]) == 0 {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					ctr.Tuples++
					out = append(out, arena.concat(lrows[a], rrows[b]))
				}
			}
			i, j = i2, j2
		}
	}
	return &replay{rows: out}
}

func sortCostOps(n int) int {
	ops := 0
	for m := n; m > 1; m >>= 1 {
		ops += n
	}
	return ops
}

// --- Hash aggregate ---

func (ex *executor) buildAggregate(a *plan.AggregateNode) (iterator, error) {
	child, err := ex.build(a.Child)
	if err != nil {
		return nil, err
	}
	schema := a.Child.Schema()
	idx := make([]int, len(a.GroupBy))
	for i, c := range a.GroupBy {
		j, err := schema.IndexOf(c.Table, c.Column)
		if err != nil {
			return nil, fmt.Errorf("executor: GROUP BY %s: %w", c, err)
		}
		idx[i] = j
	}
	// Groups are bucketed by 64-bit key hash with collision chains;
	// first-seen order is preserved for deterministic output. Group-by
	// keys compare with SQL ordering semantics (Compare), under which
	// NULL equals NULL, so unlike joins NULL keys form a group.
	type aggGroup struct {
		keyRow rel.Row
		count  int64
	}
	buckets := make(map[uint64][]*aggGroup)
	var order []*aggGroup // first-seen order for determinism
	for {
		row, ok := child.next()
		if !ok {
			break
		}
		ex.res.Counters.OperatorEvals++
		hash := rel.HashRow(row, idx)
		var g *aggGroup
		for _, cand := range buckets[hash] {
			same := true
			for i, j := range idx {
				if cand.keyRow[i].Compare(row[j]) != 0 {
					same = false
					break
				}
			}
			if same {
				g = cand
				break
			}
		}
		if g == nil {
			keyRow := make(rel.Row, len(idx))
			for i, j := range idx {
				keyRow[i] = row[j]
			}
			g = &aggGroup{keyRow: keyRow}
			buckets[hash] = append(buckets[hash], g)
			order = append(order, g)
		}
		g.count++
	}
	out := make([]rel.Row, 0, len(order))
	for _, g := range order {
		ex.res.Counters.Tuples++
		out = append(out, append(g.keyRow.Clone(), rel.Int(g.count)))
	}
	return &replay{rows: out}, nil
}

// --- Index nested-loop join ---

type indexNLIter struct {
	left     iterator
	table    *storage.Table
	index    *storage.Index
	outerCol int // position in left schema of the probe key
	residual []sql.Selection
	fidx     []int
	extraL   []int // remaining predicate positions (left)
	extraR   []int // remaining predicate positions (inner table row)
	ctr      *Counters
	arena    rowArena
	inner    rel.Row // scratch: the inner row a match is read into

	cur     rel.Row
	matches []int
	matchI  int
	haveCur bool
}

func (ex *executor) buildIndexNL(j *plan.JoinNode, left iterator, lidx, ridx []int) (iterator, error) {
	inner, ok := j.Right.(*plan.ScanNode)
	if !ok {
		return nil, fmt.Errorf("executor: index nested-loop inner must be a base relation: %w", ErrUnsupportedPlan)
	}
	t, err := ex.opts.Binder(inner.Table)
	if err != nil {
		return nil, err
	}
	idx := t.Index(inner.IndexColumn)
	if idx == nil {
		// Bound table lacks the index (e.g. a test's sample): hash join.
		right, err := ex.build(j.Right)
		if err != nil {
			return nil, err
		}
		return newHashJoin(left, right, lidx, ridx, &ex.res.Counters), nil
	}
	fidx, err := filterIdx(inner.OutSchema, inner.Filters)
	if err != nil {
		return nil, err
	}
	it := &indexNLIter{
		left:     left,
		table:    t,
		index:    idx,
		outerCol: lidx[0],
		residual: inner.Filters,
		fidx:     fidx,
		extraL:   lidx[1:],
		extraR:   ridx[1:],
		ctr:      &ex.res.Counters,
		inner:    make(rel.Row, t.Schema().Len()),
	}
	return it, nil
}

func (ix *indexNLIter) next() (rel.Row, bool) {
	for {
		if !ix.haveCur {
			ix.cur, ix.haveCur = ix.left.next()
			if !ix.haveCur {
				return nil, false
			}
			ix.ctr.RandPages += int64(ix.index.Height())
			ix.matches = ix.index.Lookup(ix.cur[ix.outerCol])
			ix.matchI = 0
		}
		for ix.matchI < len(ix.matches) {
			id := ix.matches[ix.matchI]
			ix.matchI++
			ix.ctr.IndexTuples++
			ix.ctr.RandPages++
			ix.ctr.Tuples++
			cs := ix.table.ColData()
			if !passes(cs, id, ix.residual, ix.fidx, ix.ctr) {
				continue
			}
			cs.ReadRow(ix.inner, id)
			if keysMatch(ix.cur, ix.extraL, ix.inner, ix.extraR, ix.ctr) {
				return ix.arena.concat(ix.cur, ix.inner), true
			}
		}
		ix.haveCur = false
	}
}
