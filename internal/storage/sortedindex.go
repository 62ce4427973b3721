package storage

// One sorted permutation per column: sortedPerm orders an int64 column's
// non-NULL row ids by (value, row id) with a radix sort, and it has three
// callers — the sorted sample index below (IndexRange), and through
// ColumnRuns both ANALYZE (stats.AnalyzeColumn) and the bulk build of a
// secondary index's hash directory (CreateIndex), which read the
// permutation as runs of equal values.

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"reopt/internal/rel"
	"reopt/internal/vec"
)

// The two cut-offs of the sorted sample index. Both are constants read
// off BenchmarkIndexedRangeScan (bench_test.go; the numbers below are its
// BENCH_pr15.json run), never options: they gate on the column's size and
// the predicate's measured match count, which the code observes for
// itself.
const (
	// indexMinRows is the smallest column that gets an index. At 1 %
	// selectivity the index pass is 10-15x cheaper than the kernel pass at
	// every size (80 ns against 0.8 us at 10^3 rows, 0.21 against 3.1 us at
	// 4096, 0.8 against 12.6 us at 16384), and a build (14-34 ns a row) is
	// repaid after some 20-40 such filters whatever the size — so the
	// cut-off is about what there is to win: under 4096 rows a whole kernel
	// pass costs under 3 us, noise beside the ~75 us the rest of a
	// validation at the paper's 600-row samples takes, while an index would
	// still cost its build in some first request and 4 bytes a row. Those
	// samples therefore never build one.
	indexMinRows = 4096
	// indexMaxShare is the largest matches/rows ratio, as 1/indexMaxShare,
	// the index still answers. On 10^5 rows the index pass costs about
	// 0.04 + 0.8 x selectivity ns a row (one bit set per match) against the
	// kernel's flat 0.77: 3.7 against 76 us at 0.1 %, 11 against 76 at
	// 10 %, 43 against 77 at 50 %; the passes would cross near 90 %. At one
	// half the index still wins by 1.8x; beyond it the margin no longer
	// pays for the bitmap the pass allocates.
	indexMaxShare = 2
)

// sortedIndex is the sorted sample index of one int64 ColStore column:
// the column's non-NULL row ids in ascending (value, row id) order, built
// once, on the first range lookup, and immutable after.
type sortedIndex struct {
	once sync.Once
	perm []int32
}

// attachIndex gives a store-owned column its (still unbuilt) index
// when it is an int64 column of at least indexMinRows rows. Columns made
// by NewLike never pass through here: intermediate results are not
// indexed.
func (c *ColData) attachIndex() {
	if c.Kind == rel.KindInt && len(c.Ints) >= indexMinRows {
		c.idx = new(sortedIndex)
	}
}

// rows returns the column's rows whose non-NULL value lies in [lo, hi]
// (none when lo > hi), in ascending (value, row id) order, building the
// permutation on first use: two binary searches, time proportional to
// the answer rather than the column.
func (ix *sortedIndex) rows(c *ColData, lo, hi int64) []int32 {
	ix.once.Do(func() { ix.perm = sortedPerm(c.Ints, c.Nulls) })
	perm, vals := ix.perm, c.Ints
	a := sort.Search(len(perm), func(i int) bool { return vals[perm[i]] >= lo })
	b := a + sort.Search(len(perm)-a, func(i int) bool { return vals[perm[a+i]] > hi })
	return perm[a:b]
}

// rowBits returns the selection bitmap words (vec.Bitmap layout) of an
// n-row column with exactly the given rows set.
func rowBits(rows []int32, n int) []uint64 {
	words := make([]uint64, vec.NumWords(n))
	for _, r := range rows {
		words[uint32(r)/vec.WordBits] |= 1 << (uint32(r) % vec.WordBits)
	}
	return words
}

// IndexRange answers `lo <= v <= hi AND v IS NOT NULL` over the whole
// column from its sorted index: the selection bitmap words a scan kernel
// followed by the NULL mask would produce, bit for bit. It returns nil —
// the caller then scans — when the column has no index or the matches
// exceed 1/indexMaxShare of its rows.
func (c *ColData) IndexRange(lo, hi int64) []uint64 {
	if c.idx == nil {
		return nil
	}
	rows := c.idx.rows(c, lo, hi)
	if len(rows)*indexMaxShare > len(c.Ints) {
		return nil
	}
	return rowBits(rows, len(c.Ints))
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
// Value.Compare order, whose ties are Value.Key's classes (so one run is
// one hash-directory key) on every column except one mixing integers and
// floats past ±2^53, where Compare rounds the integer to a float.
func (t *Table) ColumnRuns(pos int) (ids []int32, runs []int) {
	c := buildColumn(t.rows, pos)
	if c.Kind == rel.KindInt {
		ids = sortedPerm(c.Ints, c.Nulls)
	} else {
		ids = make([]int32, 0, len(t.rows))
		for i := range t.rows {
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
