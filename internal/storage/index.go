package storage

import (
	"sort"
	"sync"

	"reopt/internal/rel"
)

// Index is a secondary index over one column of a table: the column's
// sorted permutation (ColumnRuns) — its non-NULL row ids in (value, row
// id) order, cut into runs of equal values — which a point lookup
// binary-searches. It holds 4 bytes a non-NULL row and 4 a distinct
// value, the leaf level of the B-tree the cost model prices.
//
// An Append after the build makes the index stale, and the next reader
// sorts the column again, once. Append must not run concurrently with
// any reader.
type Index struct {
	table  *Table
	column string
	colPos int

	once        sync.Once // done while the index matches its column
	perm        []int32   // the column's non-NULL row ids in (value, row id) order
	runs        []int32   // run r, one value's rows in heap order, is perm[runs[r]:runs[r+1]]
	numDistinct int
}

// buildIndex builds the index on column pos of t.
func buildIndex(t *Table, column string, pos int) *Index {
	ix := &Index{table: t, column: column, colPos: pos}
	ix.current()
	return ix
}

// current brings the index up to date with its column, sorting the
// column when an Append has made the index stale.
func (ix *Index) current() { ix.once.Do(ix.build) }

// build sorts the column into the index.
func (ix *Index) build() {
	ix.perm, ix.runs = ix.table.sortColumn(ix.colPos)
	ix.numDistinct = len(ix.runs) - 1
}

// Column returns the indexed column name.
func (ix *Index) Column() string { return ix.column }

// Lookup returns the heap row ids whose indexed column equals v, in heap
// order: one run, found by binary search in Value.Compare order, whose
// ties are exactly Value.Equal. NULL never matches. The returned slice is
// owned by the index and must not be mutated.
func (ix *Index) Lookup(v rel.Value) []int32 {
	if v.IsNull() {
		return nil
	}
	ix.current()
	col := &ix.table.data.cols[ix.colPos]
	perm, runs := ix.perm, ix.runs
	first := func(r int) rel.Value { return col.Value(int(perm[runs[r]])) }
	r := sort.Search(ix.numDistinct, func(r int) bool { return first(r).Compare(v) >= 0 })
	if r == ix.numDistinct || !first(r).Equal(v) {
		return nil
	}
	a, b := runs[r], runs[r+1]
	return perm[a:b:b]
}

// NumDistinct returns the number of distinct non-NULL values in the
// index.
func (ix *Index) NumDistinct() int {
	ix.current()
	return ix.numDistinct
}

// LeafPages approximates the number of index leaf pages, used by the cost
// model for index scans: one entry per table row, NULLs included, as the
// B-tree it models would hold, and index entries are denser than heap
// rows — we assume 4x the heap fanout.
func (ix *Index) LeafPages() int {
	per := ix.table.rowsPerPage * 4
	n := ix.table.NumRows()
	if n == 0 {
		return 1
	}
	return (n + per - 1) / per
}

// Height approximates the B-tree height (root-to-leaf page reads for a
// point descent), used to charge random page accesses per probe.
func (ix *Index) Height() int {
	h := 1
	pages := ix.LeafPages()
	const fanout = 256
	for pages > 1 {
		pages = (pages + fanout - 1) / fanout
		h++
	}
	return h
}
