package storage

import (
	"sort"

	"reopt/internal/rel"
)

// Index is a secondary index over one column of a table: a name and a
// position, whose lookups binary-search the runs of the column's sorted
// permutation (its slot, sortedindex.go), and the shape of the B-tree the
// cost model prices, whose leaf level the permutation is: 4 bytes a
// non-NULL row and 4 a distinct value.
type Index struct {
	table  *Table
	column string
	colPos int
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
	col := &ix.table.data.cols[ix.colPos]
	perm, runs := col.idx.sorted()
	first := func(r int) rel.Value { return col.Value(int(perm[runs[r]])) }
	r := sort.Search(len(runs)-1, func(r int) bool { return first(r).Compare(v) >= 0 })
	if r == len(runs)-1 || !first(r).Equal(v) {
		return nil
	}
	a, b := runs[r], runs[r+1]
	return perm[a:b:b]
}

// NumDistinct returns the number of distinct non-NULL values in the
// index.
func (ix *Index) NumDistinct() int { return ix.table.data.cols[ix.colPos].idx.numDistinct() }

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
