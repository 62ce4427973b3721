package storage

// One sorted permutation per column, in one place: the column's slot in
// its ColStore (ColData.idx), built once by sortColumn. Every reader goes
// through it — a secondary index's Lookup and NumDistinct (index.go),
// ANALYZE's ColumnRuns and a sample's range lookups (IndexRows) — so an
// indexed column is sorted once, and a full-ratio sample reads its
// table's permutation instead of sorting again (Table.Sample).

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
	// indexMinRows is the smallest column IndexRows answers for. At 1 %
	// selectivity the index's selection vector is 30-120x cheaper than the
	// kernel's at every size (45 ns against 1.5 us at 10^3 rows, 84 ns
	// against 6.0 us at 4096, 0.20 against 24 us at 16384). A sample
	// sorting its own permutation pays a build (17-30 ns a row; it cuts no
	// runs), repaid after some 15-50 such filters whatever the size, and a
	// full-ratio sample of an indexed column pays none. So the cut-off is
	// about what there is to win: under 4096 rows a whole kernel pass
	// costs a few microseconds, noise beside the rest of a validation at
	// the paper's 600-row samples, while a permutation would still cost
	// its build in some first request and 4 bytes a row. Those samples
	// therefore never build one.
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

// sortedIndex is a column's slot: ColumnRuns' permutation of column pos
// of store, built by its first reader and immutable after. Beside it the
// slot keeps, for each column of the store a range lookup has asked for,
// an ordered copy: that column's values in perm's order, so a scan reads
// the run of its boundary columns an answer selects front to back instead
// of at scattered row ids. Each copy is built once, on the first lookup
// that asks for it, and lives — like perm — as long as the slot.
type sortedIndex struct {
	once       sync.Once
	perm, runs []int32 // run r, one value's rows in heap order, is perm[runs[r]:runs[r+1]]; runs only when indexed
	store      *ColStore
	pos        int
	indexed    bool          // a secondary index reads it (CreateIndex)
	copies     []orderedCopy // one slot per column of store
	// permBytes and copyBytes count what perm with its runs and the
	// copies hold, added by the sync.Once that builds each, so a scrape
	// reads them race-free; a permutation read off a table is not added.
	permBytes, copyBytes atomic.Int64
}

// orderedCopy is one column of the store in its index's perm order.
type orderedCopy struct {
	once sync.Once
	col  ColData
}

// newSortedIndex is an unbuilt slot for column pos of store.
func newSortedIndex(store *ColStore, pos int, indexed bool) *sortedIndex {
	return &sortedIndex{store: store, pos: pos, indexed: indexed, copies: make([]orderedCopy, len(store.cols))}
}

// attachIndex keeps column pos's slot current after a write: a column a
// secondary index reads, and any int64 column of at least indexMinRows
// rows, holds a slot — a fresh, unbuilt one when it has none yet or its
// permutation was built before the column last grew — and any other
// column none. Columns made by NewLike never pass through here.
func (cs *ColStore) attachIndex(pos int) {
	c := &cs.cols[pos]
	indexed := c.idx != nil && c.idx.indexed
	switch {
	case !indexed && (c.Kind != rel.KindInt || len(c.Ints) < indexMinRows):
		c.idx = nil
	case c.idx == nil || c.idx.perm != nil:
		c.idx = newSortedIndex(cs, pos, indexed)
	}
}

// sorted returns the column's permutation and its runs, sorting the
// column on first use.
func (ix *sortedIndex) sorted() (perm, runs []int32) {
	ix.once.Do(ix.build)
	return ix.perm, ix.runs
}

// numDistinct returns the number of runs, sorting on first use. It is
// a call of its own so that Index.NumDistinct, which the planner prices
// every index-nested-loop candidate with, stays inlinable.
func (ix *sortedIndex) numDistinct() int {
	_, runs := ix.sorted()
	return len(runs) - 1
}

// build sorts the column into the slot. Only a slot a secondary index
// reads cuts runs: Lookup, NumDistinct and ColumnRuns read indexed slots
// alone, and IndexRows, all an unindexed slot serves, reads perm alone.
func (ix *sortedIndex) build() {
	ix.perm, ix.runs = ix.store.cols[ix.pos].sortColumn(ix.store.numRows, ix.indexed)
	ix.permBytes.Store(int64(cap(ix.perm)+cap(ix.runs)) * 4)
}

// span returns the run perm[a:b] of the column's rows whose non-NULL
// value lies in [lo, hi] (empty when lo > hi), in ascending (value, row
// id) order, building the permutation on first use: two binary searches,
// time proportional to the answer rather than the column. The column must
// be int64.
func (ix *sortedIndex) span(lo, hi int64) (a, b int) {
	perm, _ := ix.sorted()
	vals := ix.store.cols[ix.pos].Ints
	a = sort.Search(len(perm), func(i int) bool { return vals[perm[i]] >= lo })
	b = a + sort.Search(len(perm)-a, func(i int) bool { return vals[perm[a+i]] > hi })
	return a, b
}

// ordered returns column pos of the store in perm's order, gathering it
// on first use. perm must be built.
func (ix *sortedIndex) ordered(pos int) *ColData {
	oc := &ix.copies[pos]
	oc.once.Do(func() {
		src := &ix.store.cols[pos]
		oc.col = src.NewLike(len(ix.perm))
		oc.col.Gather(src, ix.perm, 0, len(ix.perm), 0)
		ix.copyBytes.Add(oc.col.bytes(nil))
	})
	return &oc.col
}

// IndexRows answers `lo <= v <= hi AND v IS NOT NULL` over the whole
// column from its sorted permutation: exactly the rows a scan kernel
// followed by the NULL mask would select, in ascending (value, row id)
// order — not row order. The slice is the permutation's own, returned
// without a copy; the caller must not write to it. ok is false — the
// caller then scans — when the column is not an int64 column of at least
// indexMinRows rows or the matches exceed 1/indexMaxShare of its rows.
//
// with names columns of the ColStore that owns c, by position; when ok,
// runs[k] is column with[k] at the answered rows, in the same order —
// byte for byte what gathering it at rows makes — read off the column's
// ordered copy as one contiguous run. runs must hold len(with) columns;
// the runs share the copies' storage and must not be written to.
func (c *ColData) IndexRows(lo, hi int64, with []int, runs []ColData) (rows []int32, ok bool) {
	if c.idx == nil || c.Kind != rel.KindInt || len(c.Ints) < indexMinRows {
		return nil, false
	}
	a, b := c.idx.span(lo, hi)
	if (b-a)*indexMaxShare > len(c.Ints) {
		return nil, false
	}
	for k, pos := range with {
		runs[k] = c.idx.ordered(pos).slice(a, b)
	}
	return c.idx.perm[a:b:b], true
}

// sortedPerm returns the non-NULL row ids of vals in ascending (value,
// row id) order and, when cut, its runs: a stable byte-wise LSD radix
// sort of (sign-flipped value, row id) pairs, whose sorted keys give the
// runs. A digit every key shares — the high bytes of any small-range
// column — is skipped, so typical columns sort in two or three
// count-and-scatter passes.
func sortedPerm(vals []int64, nulls []bool, cut bool) (ids, runs []int32) {
	keys := make([]uint64, 0, len(vals))
	ids = make([]int32, 0, len(vals))
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
	if !cut {
		return ids, nil
	}
	return ids, cutRuns(len(keys), func(x int) bool { return keys[x-1] != keys[x] })
}

// cutRuns returns the run offsets of n sorted entries, where starts(x)
// reports that entry x > 0 begins a new run: 0, each such x, and n,
// counted first so that the slice a slot keeps is allocated exactly.
func cutRuns(n int, starts func(x int) bool) []int32 {
	distinct := min(n, 1)
	for x := 1; x < n; x++ {
		if starts(x) {
			distinct++
		}
	}
	runs := make([]int32, 0, distinct+1)
	for x := range n {
		if x == 0 || starts(x) {
			runs = append(runs, int32(x))
		}
	}
	return append(runs, int32(n))
}

// ColumnRuns returns column pos as one sorted permutation: ids holds its
// non-NULL row ids in ascending (value, row id) order, cut into runs of
// equal values — run r is ids[runs[r]:runs[r+1]], one value's rows in
// heap order, and len(runs)-1 is the number of distinct values. An
// indexed column answers from its slot, whose slices the caller must not
// write to; any other is sorted for the call.
func (t *Table) ColumnRuns(pos int) (ids, runs []int32) {
	if ix := t.data.cols[pos].idx; ix != nil && ix.indexed {
		return ix.sorted()
	}
	return t.data.cols[pos].sortColumn(t.data.numRows, true)
}

// sortColumn sorts the column's n rows into ColumnRuns' permutation and
// runs, which an int64 column cuts only when cut is set. An int64 column
// sorts with sortedPerm; any other with one comparison sort in
// Value.Compare order, whose ties are Value.Key's classes, so one run is
// one value under Value.Equal.
func (c *ColData) sortColumn(n int, cut bool) (ids, runs []int32) {
	if c.Kind == rel.KindInt {
		return sortedPerm(c.Ints, c.Nulls, cut)
	}
	ids = make([]int32, 0, n)
	for i := range n {
		if !c.IsNull(i) {
			ids = append(ids, int32(i))
		}
	}
	// (value, row id) is a total order, so this unstable sort orders ids
	// exactly as a stable sort by value would.
	slices.SortFunc(ids, func(a, b int32) int {
		if r := c.compare(int(a), int(b)); r != 0 {
			return r
		}
		return cmp.Compare(a, b)
	})
	return ids, cutRuns(len(ids), func(x int) bool { return c.compare(int(ids[x-1]), int(ids[x])) != 0 })
}
