package storage

// One sorted permutation per column: sortedPerm orders an int64 column's
// non-NULL row ids by (value, row id) with a radix sort, and it has three
// callers — the sorted sample index below (IndexRows, with its ordered
// copies of the columns scans read at its answers), and through
// ColumnRuns both ANALYZE (stats.AnalyzeColumn) and the bulk build of a
// secondary index's hash directory (CreateIndex), which read the
// permutation as runs of equal values.

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"reopt/internal/rel"
)

// The two cut-offs of the sorted sample index. Both are constants read
// off BenchmarkIndexedRangeScan (bench_test.go; the numbers below are its
// BENCH_pr30.json run, a 2-core Xeon, go1.24), never options: they gate on
// the column's size and the predicate's measured match count, which the
// code observes for itself.
const (
	// indexMinRows is the smallest column that gets an index. At 1 %
	// selectivity the index's selection vector is 30-120x cheaper than the
	// kernel's at every size (45 ns against 1.5 us at 10^3 rows, 84 ns
	// against 6.0 us at 4096, 0.20 against 24 us at 16384), and a build
	// (17-30 ns a row) is repaid after some 12-40 such filters whatever
	// the size — so the cut-off is about what there is to win: under 4096
	// rows a whole kernel pass costs a few microseconds, noise beside the
	// rest of a validation at the paper's 600-row samples, while an index
	// would still cost its build in some first request and 4 bytes a row.
	// Those samples therefore never build one.
	indexMinRows = 4096
	// indexMaxShare is the largest matches/rows ratio, as 1/indexMaxShare,
	// the index still answers. It gates both uses of an answer, and on
	// 10^5 rows both still win at one half. A scan with one filter takes
	// the ids as its selection vector ("index-ids", 1.3-1.5 ns a match:
	// the gather, in value order) instead of a range pass, AppendIndices
	// and a gather in row order ("kernel-ids", 0.8-1.7 ns a row): 0.11
	// against 80 us at 0.1 %, 15 against 111 at 10 %, 66 against 167 at
	// 50 %. A scan with several filters clears the pass's words and sets
	// one bit per match ("index-bits", 1.2-1.9 ns a match) instead of a
	// range pass and the NULL mask ("kernel-bits", 0.75-0.9 ns a row in
	// the quiet runs): 0.20 against 79 us at 0.1 %, 19 against 147 at
	// 10 %, 39 against 87 at 25 %, 60 against 75 at 50 % — 1.26x at one
	// half, so the two bitmap passes cross near 60 %.
	indexMaxShare = 2
)

// sortedIndex is the sorted sample index of one int64 ColStore column:
// the column's non-NULL row ids in ascending (value, row id) order, built
// once, on the first range lookup, and immutable after. Beside it the
// index keeps, for each column of the same store a lookup has asked for,
// an ordered copy: that column's values in perm's order, so a scan reads
// the run of its boundary columns an answer selects front to back instead
// of at scattered row ids. Each copy is built once, on the first lookup
// that asks for it, and lives — like perm — as long as the sample.
type sortedIndex struct {
	once   sync.Once
	perm   []int32
	cols   []ColData     // the owning store's columns
	copies []orderedCopy // one slot per column of cols
	// permBytes and copyBytes count what perm and the copies hold, added
	// by the sync.Once that builds each, so a scrape reads them race-free.
	permBytes, copyBytes atomic.Int64
}

// orderedCopy is one column of the store in its index's perm order.
type orderedCopy struct {
	once sync.Once
	col  ColData
}

// newSortedIndex is an unbuilt index over one of cols.
func newSortedIndex(cols []ColData) *sortedIndex {
	return &sortedIndex{cols: cols, copies: make([]orderedCopy, len(cols))}
}

// attachIndex keeps a store-owned column's index slot current: an int64
// column of at least indexMinRows rows holds an index — a fresh, unbuilt
// one when it has none yet or its index was built before the column last
// grew — and any other column holds none. cols are the store's columns,
// which its ordered copies are taken of. Columns made by NewLike never
// pass through here: intermediate results are not indexed.
func (c *ColData) attachIndex(cols []ColData) {
	switch {
	case c.Kind != rel.KindInt || len(c.Ints) < indexMinRows:
		c.idx = nil
	case c.idx == nil || c.idx.perm != nil:
		c.idx = newSortedIndex(cols)
	}
}

// span returns the run perm[a:b] of the column's rows whose non-NULL
// value lies in [lo, hi] (empty when lo > hi), in ascending (value, row
// id) order, building the permutation on first use: two binary searches,
// time proportional to the answer rather than the column.
func (ix *sortedIndex) span(c *ColData, lo, hi int64) (a, b int) {
	ix.once.Do(func() {
		ix.perm = sortedPerm(c.Ints, c.Nulls)
		ix.permBytes.Store(int64(cap(ix.perm)) * 4)
	})
	perm, vals := ix.perm, c.Ints
	a = sort.Search(len(perm), func(i int) bool { return vals[perm[i]] >= lo })
	b = a + sort.Search(len(perm)-a, func(i int) bool { return vals[perm[a+i]] > hi })
	return a, b
}

// ordered returns column pos of the store in perm's order, gathering it
// on first use. perm must be built.
func (ix *sortedIndex) ordered(pos int) *ColData {
	oc := &ix.copies[pos]
	oc.once.Do(func() {
		src := &ix.cols[pos]
		oc.col = src.NewLike(len(ix.perm))
		oc.col.Gather(src, ix.perm, 0, len(ix.perm), 0)
		ix.copyBytes.Add(oc.col.bytes(nil))
	})
	return &oc.col
}

// IndexRows answers `lo <= v <= hi AND v IS NOT NULL` over the whole
// column from its sorted index: exactly the rows a scan kernel followed by
// the NULL mask would select, in ascending (value, row id) order — not
// row order. The slice is the index's own, returned without a copy; the
// caller must not write to it. ok is false — the caller then scans — when
// the column has no index or the matches exceed 1/indexMaxShare of its
// rows.
//
// with names columns of the ColStore that owns c, by position; when ok,
// runs[k] is column with[k] at the answered rows, in the same order —
// byte for byte what gathering it at rows makes — read off the column's
// ordered copy as one contiguous run. runs must hold len(with) columns;
// the runs share the copies' storage and must not be written to.
func (c *ColData) IndexRows(lo, hi int64, with []int, runs []ColData) (rows []int32, ok bool) {
	if c.idx == nil {
		return nil, false
	}
	a, b := c.idx.span(c, lo, hi)
	if (b-a)*indexMaxShare > len(c.Ints) {
		return nil, false
	}
	for k, pos := range with {
		runs[k] = c.idx.ordered(pos).slice(a, b)
	}
	return c.idx.perm[a:b:b], true
}

// sortedPerm returns the non-NULL row ids of vals in ascending (value,
// row id) order: a stable byte-wise LSD radix sort of (sign-flipped
// value, row id) pairs. A digit every key shares — the high bytes of any
// small-range column — is skipped, so typical columns sort in two or
// three count-and-scatter passes.
func sortedPerm(vals []int64, nulls []bool) []int32 {
	keys := make([]uint64, 0, len(vals))
	ids := make([]int32, 0, len(vals))
	var varying uint64 // bits in which some key differs from the first
	for i, v := range vals {
		if nulls != nil && nulls[i] {
			continue
		}
		k := uint64(v) ^ 1<<63 // signed order as unsigned order
		keys = append(keys, k)
		ids = append(ids, int32(i))
		varying |= k ^ keys[0]
	}
	tmpKeys, tmpIDs := make([]uint64, len(keys)), make([]int32, len(keys))
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(varying>>shift) == 0 {
			continue
		}
		var pos [256]int32
		for _, k := range keys {
			pos[byte(k>>shift)]++
		}
		sum := int32(0)
		for b, n := range pos {
			pos[b] = sum
			sum += n
		}
		for i, k := range keys {
			b := byte(k >> shift)
			tmpKeys[pos[b]], tmpIDs[pos[b]] = k, ids[i]
			pos[b]++
		}
		keys, tmpKeys = tmpKeys, keys
		ids, tmpIDs = tmpIDs, ids
	}
	return ids
}

// ColumnRuns returns column pos as one sorted permutation: ids holds its
// non-NULL row ids in ascending (value, row id) order, cut into runs of
// equal values — run r is ids[runs[r]:runs[r+1]], one value's rows in
// heap order, and len(runs)-1 is the number of distinct values. An int64
// column sorts with sortedPerm; any other with one comparison sort in
// Value.Compare order, whose ties are Value.Key's classes, so one run is
// one hash-directory key.
func (t *Table) ColumnRuns(pos int) (ids []int32, runs []int) {
	c := &t.data.cols[pos]
	if c.Kind == rel.KindInt {
		ids = sortedPerm(c.Ints, c.Nulls)
	} else {
		ids = make([]int32, 0, t.data.numRows)
		for i := range t.data.numRows {
			if !c.IsNull(i) {
				ids = append(ids, int32(i))
			}
		}
		// (value, row id) is a total order, so this unstable sort orders
		// ids exactly as a stable sort by value would.
		slices.SortFunc(ids, func(a, b int32) int {
			if r := c.compare(int(a), int(b)); r != 0 {
				return r
			}
			return cmp.Compare(a, b)
		})
	}
	runs = []int{0}
	for x := 1; x < len(ids); x++ {
		if c.compare(int(ids[x-1]), int(ids[x])) != 0 {
			runs = append(runs, x)
		}
	}
	if len(ids) > 0 {
		runs = append(runs, len(ids))
	}
	return ids, runs
}
