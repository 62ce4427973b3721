package storage

import "reopt/internal/rel"

// Index is a secondary index over one column of a table: a hash directory
// from each non-NULL value to its rows, for the point lookups the paper's
// equality-predicate workloads probe it with.
type Index struct {
	table  *Table
	column string
	colPos int

	hash map[rel.ValueKey][]int
}

// buildIndex bulk-builds the index on column pos from the column's sorted
// permutation (ColumnRuns): one id array, and one directory entry per run
// of equal values holding that run's sub-slice of it.
func buildIndex(t *Table, column string, pos int) *Index {
	perm, runs := t.ColumnRuns(pos)
	col := &t.data.cols[pos]
	ids := make([]int, len(perm))
	for x, id := range perm {
		ids[x] = int(id)
	}
	ix := &Index{table: t, column: column, colPos: pos, hash: make(map[rel.ValueKey][]int, len(runs)-1)}
	for r := range len(runs) - 1 {
		i, j := runs[r], runs[r+1]
		// Capacity-clipped, so an insert into this run reallocates it
		// instead of writing over the next run's ids.
		ix.hash[col.Value(ids[i]).Key()] = ids[i:j:j]
	}
	return ix
}

// Column returns the indexed column name.
func (ix *Index) Column() string { return ix.column }

// insert files row id under v. NULL is never filed: Lookup never returns
// it, and NumDistinct counts values.
func (ix *Index) insert(v rel.Value, id int) {
	if v.IsNull() {
		return
	}
	k := v.Key()
	ix.hash[k] = append(ix.hash[k], id)
}

// Lookup returns the heap row ids whose indexed column equals v, in heap
// order. NULL never matches. The returned slice is owned by the index and
// must not be mutated.
func (ix *Index) Lookup(v rel.Value) []int {
	if v.IsNull() {
		return nil
	}
	return ix.hash[v.Key()]
}

// NumDistinct returns the number of distinct non-NULL keys in the index.
func (ix *Index) NumDistinct() int { return len(ix.hash) }

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
