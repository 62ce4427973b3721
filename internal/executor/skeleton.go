package executor

// Count-only fast path for sample-skeleton validation.
//
// The sampling estimator (Algorithm 1's GetCardinalityEstimatesBySampling)
// only needs the output *count* of every node of a skeleton made of
// sequential scans and hash joins. Running that through the general
// Volcano executor pays for work the counts never use: a full Concat row
// allocation per join output, string-concatenated join keys, and a
// NodeRows map increment per tuple. Prepared.Count instead evaluates the
// skeleton bottom-up over column-major sub-results that carry only each
// subtree's *boundary columns* — the columns referenced by query join
// predicates that cross the subtree's relation set, i.e. exactly what any
// ancestor join can ever probe — and joins them with collision-checked
// 64-bit hashes.
//
// Sub-results carry their boundary columns typed, in the sample column
// store's own shape (storage.ColData: []int64 / []float64 / []string plus
// a NULL marking; rel.Value cells only for a column that mixes kinds), and
// compressed: one row per distinct boundary tuple with its multiplicity
// beside it (compact.go). A scan compacts the typed slices at its
// selection vector; a join probe records its matching (left, right)
// row-id pairs, and the pairs — each weighing the product of its rows'
// weights — are compacted in turn. Join keys hash and compare straight
// from the typed slices. No rel.Value is built per cell, every column is
// allocated once at its exact final length, and a numeric column holds no
// pointer for the collector to clear or scan.
//
// The inner loops are vectorized. Scan filters compile to typed kernels
// (internal/vec) that evaluate each predicate over the whole column into a
// selection bitmap; conjunctive filters fuse by AND-ing bitmaps, and only
// the final bitmap is materialized into a selection vector. A scan whose
// one filter the sorted sample index answers skips the bitmap: its
// selection vector is the index's run of matching row ids, and it reads
// its boundary columns off the index's ordered copies — the same values
// in the same order, as contiguous runs rather than at scattered rows
// (runSub). A validation runs start to finish on the goroutine that asked
// for it: at the tens of microseconds one takes, handing parts of it to
// other goroutines cost more than it saved at every sample size the
// benchmarks have (DESIGN.md §2), so concurrency is between validations,
// never inside one.
//
// Because boundary columns are derived from the query rather than the
// plan, a sub-result is valid for every join order that contains the same
// logical subtree; SkeletonCache (skelcache.go) carries them across
// Algorithm 1's validation rounds. Hash tables are not cached: a join
// builds one over its build side, probes it and drops it.
//
// The engine has one entry point and one handle: Prepared.Count runs one
// plan against the request's Prepared (prepared.go), which binds the
// cache, the tables scans read, their sample epoch and scale factors, the
// memory budget and the query's derived state. Validating several plans is
// its callers' loop (core.EstimatePlans).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"reopt/internal/faultinject"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
	"reopt/internal/vec"
)

// ErrUnsupportedPlan is the sentinel for every "this engine cannot run
// that plan shape" failure in the package. The count-only skeleton
// engine's contract violations wrap it — a node that is not a scan or an
// equi-join, a subtree that does not apply exactly the query's filters
// and join predicates, a scan schema that does not resolve the query's
// columns — as does the general executor's unknown-node error. Callers
// (and the root package, which re-exports it as reopt.ErrUnsupportedPlan)
// test with errors.Is instead of string-matching.
var ErrUnsupportedPlan = errors.New("plan not supported by this engine")

// subResult is a materialized subtree: the bag of its boundary tuples in
// compressed form (compact.go, DESIGN.md §12). count is the physical row
// count — one typed column of count rows per boundary column — w each
// row's multiplicity (nil: every row counts once), and total = Σ w the
// logical count the estimator sees.
type subResult struct {
	count int
	total int64
	w     []int64
	cols  []storage.ColData
}

// newSub compacts an uncompressed row sequence into a sub-result.
func newSub(sc *skelScratch, srcs []colSrc, n int, bw bagWeights) *subResult {
	sub := &subResult{}
	sub.cols, sub.w, sub.count, sub.total = compact(sc, srcs, n, bw)
	return sub
}

// scanSub is a scan's sub-result: the store's columns at positions poss,
// at the selected rows, compacted.
func scanSub(sc *skelScratch, cs *storage.ColStore, poss []int, sel []int32) *subResult {
	sc.srcs = sc.srcs[:0]
	for _, pos := range poss {
		sc.srcs = append(sc.srcs, colSrc{cs.Col(pos), sel})
	}
	return newSub(sc, sc.srcs, len(sel), bagWeights{})
}

// runSub is an index-answered scan's sub-result: its boundary columns'
// n-row runs off the index's ordered copies (storage.ColData.IndexRows),
// each read front to back, compacted — the same sequence, hence the same
// sub-result, as scanSub at the index's row ids.
func runSub(sc *skelScratch, runs []storage.ColData, n int) *subResult {
	ids := sc.identity(n)
	sc.srcs = sc.srcs[:0]
	for k := range runs {
		sc.srcs = append(sc.srcs, colSrc{&runs[k], ids})
	}
	return newSub(sc, sc.srcs, n, bagWeights{})
}

// Count is the engine's one entry point: it compiles the plan rooted at
// root against s's prepared state and runs it on the calling goroutine
// over the tables s binds, returning the steps with their counts filled —
// a step carries the relation set its count belongs to, which is all the
// estimator asks. Reuse between plans and between requests comes from the
// cache s names (sub-results); parallelism comes from independent requests
// on their own goroutines (DESIGN.md §2). ctx is checked before each step.
//
// A plan outside the engine's contract fails with ErrUnsupportedPlan
// before anything executes; one that breaches s's memory budget fails with
// ErrMemoryBudget, one whose count overflows with ErrCountOverflow. The
// recover here is the engine boundary: whatever panics below — an
// injected fault, a checked count overflowing — fails this plan with an
// error (*PanicError for a panic) and nothing else. Nothing partial is
// ever stored: sub-results completed before a failure stay cached, and
// the failing step stores nothing.
func (s *Prepared) Count(ctx context.Context, root plan.Node) (steps []Step, err error) {
	defer func() {
		if r := recover(); r != nil {
			steps, err = nil, failureError(r)
		}
	}()
	if steps, err = s.compile(root); err != nil {
		return nil, err
	}
	e := &skelEngine{
		ctx:         ctx,
		tables:      s.tables,
		cache:       s.cache,
		mem:         memAccount{budget: s.budget},
		skelScratch: getScratch(),
	}
	err = e.run(steps)
	putScratch(e.skelScratch) // not after a panic: a step may have left it mid-write
	if err != nil {
		return nil, err
	}
	return steps, nil
}

type skelEngine struct {
	ctx    context.Context
	tables []*storage.Table // by Query.Tables position
	cache  *SkeletonCache   // nil: uncached
	mem    memAccount

	// Pooled scratch reused across the steps of one run: steps evaluate
	// strictly one at a time, so a single set of buffers serves the plan.
	*skelScratch
}

// bitmap returns the engine's primary scratch bitmap resized to n rows.
func (e *skelEngine) bitmap(n int) *vec.Bitmap { return resized(&e.bm, n) }

// scratch returns the secondary bitmap (for non-first conjuncts).
func (e *skelEngine) scratch(n int) *vec.Bitmap { return resized(&e.fb, n) }

func resized(bm **vec.Bitmap, n int) *vec.Bitmap {
	if *bm == nil {
		*bm = vec.NewBitmap(n)
	} else {
		(*bm).Reset(n)
	}
	return *bm
}

// run evaluates the steps in order — post-order, so a join finds both
// inputs done — and fills their counts. A flat loop: the goroutine's
// stack does not grow with join depth.
func (e *skelEngine) run(steps []Step) error {
	subs := make([]*subResult, len(steps))
	injecting := faultinject.Active()
	for i := range steps {
		st := &steps[i]
		// Cancellation point: once per step. Steps are bounded by the
		// sample sizes, so the latency between checks is one scan or probe.
		if e.ctx != nil {
			if err := e.ctx.Err(); err != nil {
				return err
			}
		}
		if injecting && st.scan != nil {
			// Reaching a leaf enters every node whose leftmost leaf it is,
			// outermost first — a tree walk's pre-order.
			for j := len(steps) - 1; j >= i; j-- {
				if steps[j].first == int32(i) {
					faultinject.Fire(faultinject.SkelNode, steps[j].Set.sig)
				}
			}
		}
		var err error
		if st.scan != nil {
			subs[i], err = e.evalScan(st)
		} else {
			subs[i], err = e.evalJoin(st, subs[st.left], subs[st.right])
			subs[st.left], subs[st.right] = nil, nil // consumed: the cache, if any, keeps them
		}
		if err != nil {
			return err
		}
		st.Count, st.Rows = subs[i].total, int64(subs[i].count)
	}
	return nil
}

// --- Leaf scans ---

// scanPositions resolves a scan's filter columns and boundary columns
// against its schema, up front, so schema-resolution failures surface
// before any scan work — wrapped as unsupported, because a scan schema
// that cannot resolve its own columns is a hand-built shape, not an
// engine failure.
func scanPositions(t *plan.ScanNode, refs []sql.ColRef) (filterPos, boundPos []int, err error) {
	pos := make([]int, len(t.Filters)+len(refs))
	filterPos, boundPos = pos[:len(t.Filters):len(t.Filters)], pos[len(t.Filters):]
	for fi, f := range t.Filters {
		if filterPos[fi], err = t.OutSchema.IndexOf(f.Col.Table, f.Col.Column); err != nil {
			return nil, nil, fmt.Errorf("executor: skeleton scan %s: filter column %s: %v: %w",
				t.Alias, f.Col, err, ErrUnsupportedPlan)
		}
	}
	for k, ref := range refs {
		if boundPos[k], err = t.OutSchema.IndexOf(ref.Table, ref.Column); err != nil {
			return nil, nil, fmt.Errorf("executor: skeleton scan %s: boundary column %s.%s: %v: %w",
				t.Alias, ref.Table, ref.Column, err, ErrUnsupportedPlan)
		}
	}
	return filterPos, boundPos, nil
}

func (e *skelEngine) evalScan(st *Step) (*subResult, error) {
	t, refs, key := st.scan, st.Set.refs, st.Set.key
	if e.cache != nil {
		if sub, ok := e.cache.getSub(key); ok {
			// Budget accounting is cache-independent: a hit charges what
			// computing the sub-result would have.
			if e.mem.charge(subCharge(sub)) {
				return nil, ErrMemoryBudget
			}
			return sub, nil
		}
	}
	tab := e.tables[bits.TrailingZeros64(st.Set.Mask)]

	filterPos, poss, err := scanPositions(t, refs)
	if err != nil {
		return nil, err
	}

	// The sorted sample index is asked once per filter. A lone filter it
	// answers selects the index's own run of row ids, in (value, row id)
	// order, and hands over the boundary columns' runs in that order;
	// any other scan is one filter pass over the sample's column store,
	// where an answered filter is an index pass.
	cs := tab.ColData()
	var with []int
	if len(t.Filters) == 1 {
		with = poss
		e.runs = slices.Grow(e.runs[:0], len(poss))[:len(poss)]
	}
	var sel []int32
	indexed := false
	passes := e.passBuf[:0]
	for fi, f := range t.Filters {
		col := cs.Col(filterPos[fi])
		rows, ok := indexRows(col, f, with, e.runs)
		switch {
		case !ok:
			passes = append(passes, kernelPass(col, f))
		case len(t.Filters) == 1:
			sel, indexed = rows, true
		default:
			passes = append(passes, indexPass(rows))
		}
	}
	e.passBuf = passes[:0]

	// The charge is what compaction materializes — the same an exact hit
	// of this scan charges.
	var sub *subResult
	if indexed {
		sub = runSub(e.skelScratch, e.runs, len(sel))
	} else {
		sub = scanSub(e.skelScratch, cs, poss, e.selectRows(passes, cs.NumRows()))
	}
	if e.mem.charge(subCharge(sub)) {
		return nil, ErrMemoryBudget
	}
	if e.cache != nil {
		e.cache.putSub(key, sub)
	}
	return sub, nil
}

// selectRows evaluates the filter passes over the whole column store
// into a selection bitmap — first pass fills, later passes AND — and
// materializes the surviving row ids, ascending. Without filters it is
// the identity vector.
func (e *skelEngine) selectRows(passes []scanPass, n int) []int32 {
	if len(passes) == 0 {
		sel := e.sel(n)
		for i := range sel {
			sel[i] = int32(i)
		}
		return sel
	}
	bm := e.bitmap(n)
	passes[0](bm, 0, n)
	if len(passes) > 1 {
		fb := e.scratch(n)
		for _, pass := range passes[1:] {
			pass(fb, 0, n)
			bm.And(fb, 0, n)
		}
	}
	return bm.AppendIndices(e.sel(bm.Count(0, n))[:0], 0, n)
}

// scanPass fills rows [lo, hi) of a bitmap with one filter conjunct
// (predicate AND not-NULL); lo must be word-aligned.
type scanPass func(dst *vec.Bitmap, lo, hi int)

// kernelPass compiles a local predicate against one column into one
// vectorized bitmap pass with comparison semantics identical to
// sql.EvalSelection, without asking the sorted sample index. A numeric
// column against numeric constants runs its kind's range kernel over the
// filter's exact interval (numInterval) — BETWEEN included, so it always
// fuses — and a string column against string constants runs the string
// kernels. Everything else (NULL constants, string/numeric cross-kind
// comparisons) falls back to a row-wise pass over the same bitmap
// layout, which keeps the engine total.
func kernelPass(col *storage.ColData, f sql.Selection) scanPass {
	nulls := col.NullWords
	switch col.Kind {
	case rel.KindInt:
		if l, h, not, ok := numInterval(f, intPlace, intNext); ok {
			vals := col.Ints
			return func(dst *vec.Bitmap, lo, hi int) {
				vec.Int64Range(dst, vals, l, h, lo, hi)
				if not {
					dst.Not(lo, hi)
				}
				vec.AndNotNulls(dst, nulls, lo, hi)
			}
		}
	case rel.KindFloat:
		if l, h, not, ok := numInterval(f, floatPlace, floatNext); ok {
			vals := col.Floats
			return func(dst *vec.Bitmap, lo, hi int) {
				vec.Float64Range(dst, vals, l, h, lo, hi)
				if not {
					dst.Not(lo, hi)
				}
				vec.AndNotNulls(dst, nulls, lo, hi)
			}
		}
	case rel.KindString:
		vals, c, c2 := col.Strs, f.Value, f.Value2
		op, cmp := vecOp(f.Op)
		switch {
		case cmp && c.Kind() == rel.KindString:
			cs := c.AsString()
			return func(dst *vec.Bitmap, lo, hi int) {
				vec.StringCmp(dst, vals, op, cs, lo, hi)
				vec.AndNotNulls(dst, nulls, lo, hi)
			}
		case f.Op == sql.OpBetween && c.Kind() == rel.KindString && c2.Kind() == rel.KindString:
			l, h := c.AsString(), c2.AsString()
			return func(dst *vec.Bitmap, lo, hi int) {
				vec.StringRange(dst, vals, l, h, lo, hi)
				vec.AndNotNulls(dst, nulls, lo, hi)
			}
		}
	}
	return fallbackPass(col, f)
}

// fallbackPass is the row-wise pass for column/constant combinations
// without a typed kernel; constructed only when actually needed. It
// writes the kernels' word layout (whole words of [lo, hi) assigned,
// tail bits zero), so fallback filters still fuse with kernel filters
// by And.
func fallbackPass(col *storage.ColData, f sql.Selection) scanPass {
	return func(dst *vec.Bitmap, lo, hi int) {
		words := dst.Words()
		for base := lo; base < hi; base += vec.WordBits {
			var word uint64
			for i := base; i < min(base+vec.WordBits, hi); i++ {
				if sql.EvalSelection(col.Value(i), f) {
					word |= 1 << uint(i-base)
				}
			}
			words[base/vec.WordBits] = word
		}
	}
}

// vecOp maps a sql comparison operator to its kernel operator.
func vecOp(op sql.CompareOp) (vec.CmpOp, bool) {
	switch op {
	case sql.OpEq:
		return vec.Eq, true
	case sql.OpNe:
		return vec.Ne, true
	case sql.OpLt:
		return vec.Lt, true
	case sql.OpLe:
		return vec.Le, true
	case sql.OpGt:
		return vec.Gt, true
	case sql.OpGe:
		return vec.Ge, true
	default:
		return 0, false
	}
}

// Constants that close an interval's open end: every number is at
// least -Inf and at most NaN in rel.Value.Compare's order.
var minusInf, nan = rel.Float(math.Inf(-1)), rel.Float(math.NaN())

// numInterval is the one place a numeric filter becomes an interval:
// `v op c`, or `v BETWEEN c AND c2`, with numeric constants, as the exact
// closed interval [lo, hi] of the column's kind T whose values, in
// rel.Value.Compare's order (NaN above every number, -0.0 equal to 0.0),
// are the non-NULL rows the filter keeps — or, when not is set (<>), the
// non-NULL rows it drops. Each end is the first value of T on the kept
// side of its constant, and BETWEEN is the intersection of Ge c and Le
// c2. So a constant T cannot hold lands on its neighbour (on an int
// column x < 2.5 is [MinInt64, 2]); a constant with no value of T on the
// kept side (x > NaN; x ≥ 2^63 on an int column) empties the interval —
// lo is then T's greatest value and hi its least; and one past every
// value of T on the other side (x < NaN on an int column) keeps every
// non-NULL row. ok is false when a constant is not a number.
//
// place puts a constant among T's values — at x (s = 0), or strictly
// between x and its neighbour on side s, or beyond every value of T
// there — and next steps to a value's neighbour above (up) or below.
func numInterval[T int64 | float64](f sql.Selection, place func(rel.Value) (x T, s int), next func(x T, up bool) (T, bool)) (lo, hi T, not, ok bool) {
	loC, hiC, loStrict, hiStrict := f.Value, f.Value, false, false
	switch f.Op {
	case sql.OpEq:
	case sql.OpNe:
		not = true
	case sql.OpLt:
		loC, hiStrict = minusInf, true
	case sql.OpLe:
		loC = minusInf
	case sql.OpGt:
		loStrict, hiC = true, nan
	case sql.OpGe:
		hiC = nan
	case sql.OpBetween:
		hiC = f.Value2
	default:
		return lo, hi, false, false
	}
	if !isNumber(loC) || !isNumber(hiC) {
		return lo, hi, false, false
	}
	// end is the first value of T at or beyond c on the kept side.
	end := func(c rel.Value, up, strict bool) (T, bool) {
		x, s := place(c)
		if !up {
			s = -s
		}
		if s < 0 || s == 0 && !strict {
			return x, true
		}
		return next(x, up)
	}
	lo, loOK := end(loC, true, loStrict)
	hi, hiOK := end(hiC, false, hiStrict)
	if !loOK || !hiOK {
		lo, _ = place(nan)
		hi, _ = place(minusInf)
	}
	return lo, hi, not, true
}

func isNumber(v rel.Value) bool { return v.Kind() == rel.KindInt || v.Kind() == rel.KindFloat }

// intPlace places a numeric constant among the int64 values, a float one
// exactly (rel.FloatInt).
func intPlace(c rel.Value) (int64, int) {
	if c.Kind() == rel.KindInt {
		return c.AsInt(), 0
	}
	return rel.FloatInt(c.AsFloat())
}

// intNext is x+1 (up) or x-1, if it is an int64.
func intNext(x int64, up bool) (int64, bool) {
	if up {
		return x + 1, x < math.MaxInt64
	}
	return x - 1, x > math.MinInt64
}

// floatPlace places a numeric constant among the float64 values: an
// integer at its nearest float and, when no float holds it, on the side
// of that float the integer lies.
func floatPlace(c rel.Value) (float64, int) {
	if c.Kind() == rel.KindFloat {
		return c.AsFloat(), 0
	}
	x := float64(c.AsInt())
	return x, c.Compare(rel.Float(x))
}

// floatNext is the float next to x above (up) or below it in Compare's
// order, which runs from -Inf to +Inf and then NaN.
func floatNext(x float64, up bool) (float64, bool) {
	switch {
	case x != x:
		return math.Inf(1), !up
	case up && math.IsInf(x, 1):
		return math.NaN(), true
	case !up && math.IsInf(x, -1):
		return x, false
	case up:
		return math.Nextafter(x, math.Inf(1)), true
	}
	return math.Nextafter(x, math.Inf(-1)), true
}

// useSortedIndex lets the equivalence tests validate one catalog with and
// without its sorted sample indexes; nothing else ever clears it.
var useSortedIndex = true

// indexRows returns the rows filter f keeps on col when the column's
// sorted sample index answers it: the index's own read-only run of row
// ids, in (value, row id) order, and in runs the same run of each store
// column named in with (storage.ColData.IndexRows). The index answers the
// int64 interval numInterval turns the filter into, so ok is false for
// any other filter (another column kind, a NULL or string constant, <>),
// and when the column has no index or the matches are too large a share
// of its rows (storage.ColData.IndexRows decides those two).
func indexRows(col *storage.ColData, f sql.Selection, with []int, runs []storage.ColData) (rows []int32, ok bool) {
	if !useSortedIndex || col.Kind != rel.KindInt {
		return nil, false
	}
	lo, hi, not, ok := numInterval(f, intPlace, intNext)
	if !ok || not {
		return nil, false
	}
	return col.IndexRows(lo, hi, with, runs)
}

// indexPass is the bitmap pass of an index-answered filter in a scan with
// several: it clears its word range and sets the bits of the given rows
// (indexRows) that fall inside it — work proportional to the matches plus
// one clear, and no NULL mask: the index holds no NULL row. The bits are
// exactly the kernel's, so the conjunction downstream is byte-identical.
// Like Bitmap.And, the pass needs hi word-aligned or the row count.
func indexPass(rows []int32) scanPass {
	return func(dst *vec.Bitmap, a, b int) {
		words := dst.Words()
		clear(words[a/vec.WordBits : vec.NumWords(b)])
		for _, r := range rows {
			if i := int(r); i >= a && i < b {
				words[i/vec.WordBits] |= 1 << (uint(i) % vec.WordBits)
			}
		}
	}
}

// --- Joins ---

func (e *skelEngine) evalJoin(st *Step, l, r *subResult) (*subResult, error) {
	key := st.Set.key
	if e.cache != nil {
		if sub, ok := e.cache.getSub(key); ok {
			// Charge what computing this join would have: its hash-table
			// entries (one per right row) plus its output cells, keeping
			// budget verdicts independent of cache state.
			if e.mem.charge(int64(r.count) + subCharge(sub)) {
				return nil, ErrMemoryBudget
			}
			return sub, nil
		}
	}
	if e.mem.charge(int64(r.count)) {
		return nil, ErrMemoryBudget
	}

	// Build the hash table over the right side's key columns and probe it
	// with the left side's rows, recording the matches in the scratch pair
	// buffer for the one compaction pass that makes the output. The table
	// dies with the step.
	ji := st.join
	j := joinProbe{l: l, r: r, table: buildHashTable(r, ji.rkey), lkey: ji.lkey, rkey: ji.rkey, gather: ji.gather}
	sub := j.result(e.skelScratch, j.probe(&e.pairs))
	if e.mem.charge(subCharge(sub)) {
		// The sub-result is fully computed and correct, so caching it
		// would be sound — but the budget contract is "a breaching plan
		// stores nothing", which keeps verdicts reproducible on retry.
		return nil, ErrMemoryBudget
	}
	if e.cache != nil {
		e.cache.putSub(key, sub)
	}
	return sub, nil
}

// joinTable is a build side's hash table: flat, bucket-chained and
// pointer-free. head holds one slot per bucket (a power of two, at least
// the build row count) and next one per build row; both store row+1, 0
// ending a chain. Two allocations whatever the key count, and nothing for
// the collector to scan.
type joinTable struct {
	head, next []int32
	shift      uint // 64 - log2(len(head)), in [1, 63]
}

// bucket maps a key hash to its head slot: the top bits of a Fibonacci
// multiply, well spread whichever bits of h carry the key (FNV string
// hashes vary mostly in their low bits, the numeric mix in all of them).
func (t *joinTable) bucket(h uint64) uint64 {
	return (h * 0x9E3779B97F4A7C15) >> (t.shift & 63)
}

// buildHashTable builds the right side's hash table in one descending
// pass: each row is pushed at the front of its chain, so every chain ends
// up in ascending row order and probe output is in (left row, right row)
// order whatever the hash function. Rows with a NULL key are left out.
func buildHashTable(r *subResult, rkey []int) *joinTable {
	logB := max(1, bits.Len(uint(max(r.count, 1)-1)))
	t := &joinTable{head: make([]int32, 1<<logB), next: make([]int32, r.count), shift: uint(64 - logB)}
	for j := r.count - 1; j >= 0; j-- {
		h, null := hashKeyAt(r.cols, rkey, j)
		if null {
			continue // NULL keys never match
		}
		b := t.bucket(h)
		t.next[j] = t.head[b]
		t.head[b] = int32(j + 1)
	}
	return t
}

// gatherSrc says where one output boundary column comes from: which
// side of the join and at which index in that side's boundary columns.
type gatherSrc struct {
	left bool
	idx  int
}

// joinProbe is one join's read-only probe inputs: both children, the
// build-side hash table, the key columns on each side, and where every
// output boundary column comes from.
type joinProbe struct {
	l, r       *subResult
	table      *joinTable
	lkey, rkey []int
	gather     []gatherSrc
}

// pairBuf is the match list of one probe: parallel (left row, right row)
// id vectors, in left row order then bucket order. Row ids only — eight
// bytes a match whatever the join carries, and nothing for the collector
// to scan — and recycled (skelScratch.pairs), so a probe's allocations do
// not depend on how many rows matched.
type pairBuf struct{ l, r []int32 }

// probe probes the hash table with every left row and returns the number
// of matching physical pairs. The pairs replace pb's contents, for result
// to weigh and compact, unless there is nothing to do with them (pb may
// then be nil): the root of a skeleton carries no output column, and over
// unweighted inputs its logical count is the match count.
func (j *joinProbe) probe(pb *pairBuf) (count int64) {
	record := len(j.gather) > 0 || j.weighted()
	if record {
		pb.l, pb.r = pb.l[:0], pb.r[:0]
	}
	if lv, rv, ok := j.intKeys(); ok {
		head, next := j.table.head, j.table.next
		for i, v := range lv[:j.l.count] {
			for rr := head[j.table.bucket(rel.HashInt64(rel.HashSeed, v))]; rr != 0; rr = next[rr-1] {
				if rv[rr-1] != v {
					continue
				}
				count++
				if record {
					pb.l = append(pb.l, int32(i))
					pb.r = append(pb.r, rr-1)
				}
			}
		}
		return count
	}
	for i := 0; i < j.l.count; i++ {
		h, null := hashKeyAt(j.l.cols, j.lkey, i)
		if null {
			continue
		}
	chain:
		for rr := j.table.head[j.table.bucket(h)]; rr != 0; rr = j.table.next[rr-1] {
			for k, lk := range j.lkey {
				// Chain-level collision check: sharing a bucket is only a
				// candidate; value equality decides.
				if !j.l.cols[lk].EqualAt(i, &j.r.cols[j.rkey[k]], int(rr-1)) {
					continue chain
				}
			}
			count++
			if record {
				pb.l = append(pb.l, int32(i))
				pb.r = append(pb.r, rr-1)
			}
		}
	}
	return count
}

// weighted reports whether either input carries multiplicities.
func (j *joinProbe) weighted() bool { return j.l.w != nil || j.r.w != nil }

// intKeys returns both sides' key values when the join key is a single
// NULL-free int64 column on each side — the foreign-key shape nearly
// every join has — so the probe can hash and compare them inline instead
// of dispatching on the column kind per row (hashKeyAt, EqualAt). Same
// hashes, same chain order, same matches.
func (j *joinProbe) intKeys() (l, r []int64, ok bool) {
	if len(j.lkey) != 1 {
		return nil, nil, false
	}
	lc, rc := &j.l.cols[j.lkey[0]], &j.r.cols[j.rkey[0]]
	ok = lc.Kind == rel.KindInt && rc.Kind == rel.KindInt && lc.Nulls == nil && rc.Nulls == nil
	return lc.Ints, rc.Ints, ok
}

// result makes the join's sub-result from a probe into sc.pairs that found
// matches pairs. The recorded pairs are the uncompressed output — each
// column read from the child column it comes from through one side's row
// ids, each pair weighing w_l * w_r — and compact groups them (the root's,
// without columns, into the empty tuple); an unweighted root recorded
// none, and is the empty tuple as many times as it matched.
func (j *joinProbe) result(sc *skelScratch, matches int64) *subResult {
	if len(j.gather) == 0 && !j.weighted() {
		sub := &subResult{total: matches}
		sub.w, sub.count = emptyTupleBag(matches)
		return sub
	}
	pb := &sc.pairs
	sc.srcs = sc.srcs[:0]
	for _, g := range j.gather {
		if g.left {
			sc.srcs = append(sc.srcs, colSrc{&j.l.cols[g.idx], pb.l})
		} else {
			sc.srcs = append(sc.srcs, colSrc{&j.r.cols[g.idx], pb.r})
		}
	}
	return newSub(sc, sc.srcs, len(pb.l), bagWeights{j.l.w, j.r.w, pb.l, pb.r})
}

// hashKeyAt hashes row i's key columns straight from their typed slices
// (the same hash rel.Value.Hash64 gives the reconstructed values, so
// bucket order does not depend on the representation),
// reporting whether any key is NULL.
func hashKeyAt(cols []storage.ColData, key []int, i int) (uint64, bool) {
	h := rel.HashSeed
	for _, ci := range key {
		c := &cols[ci]
		if c.IsNull(i) {
			return 0, true
		}
		h = c.HashAt(h, i)
	}
	return h, false
}
