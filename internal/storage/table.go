// Package storage implements the in-memory storage engine: column-major
// tables (each column one typed slice, written in place by Append) with
// page-granular accounting (so the cost model has real page counts to
// work with), secondary hash indexes for point lookups, one sorted
// permutation per column (ColumnRuns) that ANALYZE and the index build
// both read, and Bernoulli table sampling for the sampling-based
// estimator.
package storage

import (
	"fmt"
	"math/rand"
	"sort"

	"reopt/internal/rel"
)

// DefaultRowsPerPage is the heap page capacity used when a table does not
// override it. The absolute number only scales cost-model page counts; 64
// rows/page roughly matches an 8 KiB page of ~128-byte tuples.
const DefaultRowsPerPage = 64

// Table is an append-only in-memory table plus its indexes. Its rows
// live only in its column store, which Append writes in place.
type Table struct {
	name        string
	schema      *rel.Schema
	data        ColStore
	indexes     map[string]*Index
	rowsPerPage int
}

// NewTable creates an empty table. Column Table attributions in the
// schema are rewritten to the table name so that downstream name
// resolution is consistent.
func NewTable(name string, schema *rel.Schema) *Table {
	cols := make([]rel.Column, len(schema.Columns))
	for i, c := range schema.Columns {
		c.Table = name
		cols[i] = c
	}
	t := &Table{
		name:        name,
		schema:      rel.NewSchema(cols...),
		indexes:     make(map[string]*Index),
		rowsPerPage: DefaultRowsPerPage,
	}
	t.data.cols = make([]ColData, len(cols))
	for pos := range t.data.cols {
		t.data.cols[pos].Kind = rel.KindInt // an empty column reads as all-NULL ints
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *rel.Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.data.numRows }

// SetRowsPerPage overrides the heap page capacity (must be positive).
func (t *Table) SetRowsPerPage(n int) {
	if n <= 0 {
		panic("storage: rows per page must be positive")
	}
	t.rowsPerPage = n
}

// NumPages returns the heap page count implied by the row count.
func (t *Table) NumPages() int {
	n := t.data.numRows
	if n == 0 {
		return 1
	}
	return (n + t.rowsPerPage - 1) / t.rowsPerPage
}

// PageOfRow returns the heap page that holds row id.
func (t *Table) PageOfRow(id int) int { return id / t.rowsPerPage }

// Append adds a row, writing each value into its column in place (the
// row itself is not kept). The row length must match the schema; indexes
// are maintained incrementally. Append must not run concurrently with
// any reader of the table.
func (t *Table) Append(row rel.Row) error {
	if len(row) != t.schema.Len() {
		return fmt.Errorf("storage: %s: row has %d values, schema has %d columns",
			t.name, len(row), t.schema.Len())
	}
	id := t.data.numRows
	t.data.appendRow(row)
	for _, idx := range t.indexes {
		idx.insert(row[idx.colPos], id)
	}
	return nil
}

// MustAppend is Append for generator code with statically correct rows.
func (t *Table) MustAppend(row rel.Row) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

// Row returns a newly allocated copy of the row with the given id.
func (t *Table) Row(id int) rel.Row {
	row := make(rel.Row, len(t.data.cols))
	t.data.ReadRow(row, id)
	return row
}

// ColData returns the table's column store: the table itself, column by
// column. Callers must not write to it, and must not read it while an
// Append runs.
func (t *Table) ColData() *ColStore { return &t.data }

// ColumnBytes is what t's columns hold in memory (typed slices, NULL
// marking, mixed-kind cells), leaving out every array t shares with the
// same column of base (nil: none) — a full-ratio sample shares all its
// columns with its table. String payloads are not counted.
func (t *Table) ColumnBytes(base *Table) int64 {
	var n int64
	for pos := range t.data.cols {
		var b *ColData
		if base != nil {
			b = &base.data.cols[pos]
		}
		n += t.data.cols[pos].bytes(b)
	}
	return n
}

// IndexBytes is what t's sorted indexes hold so far: the permutations
// built (perm) and the ordered copies gathered (copies). Safe to call
// while lookups build them.
func (t *Table) IndexBytes() (perm, copies int64) {
	for pos := range t.data.cols {
		if ix := t.data.cols[pos].idx; ix != nil {
			perm += ix.permBytes.Load()
			copies += ix.copyBytes.Load()
		}
	}
	return perm, copies
}

// CreateIndex builds a secondary index on the named column. Creating an
// index that already exists is an error.
func (t *Table) CreateIndex(column string) (*Index, error) {
	if _, ok := t.indexes[column]; ok {
		return nil, fmt.Errorf("storage: index on %s.%s already exists", t.name, column)
	}
	pos, err := t.schema.IndexOf(t.name, column)
	if err != nil {
		return nil, err
	}
	idx := buildIndex(t, column, pos)
	t.indexes[column] = idx
	return idx, nil
}

// Index returns the index on the named column, or nil.
func (t *Table) Index(column string) *Index { return t.indexes[column] }

// Indexes returns the names of all indexed columns, sorted — callers
// feed these into plan enumeration, and map order would make plan
// choice (and therefore Γ traces) run-dependent.
func (t *Table) Indexes() []string {
	out := make([]string, 0, len(t.indexes))
	for name := range t.indexes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Sample returns a new table holding a Bernoulli sample of t: each row is
// kept independently with probability ratio. The sample table is named
// name and inherits the schema (re-attributed) but not the indexes; the
// sampling estimator scans samples sequentially.
//
// At ratio 1 every row is kept, and the sample's columns are views of
// t's, clipped to their current length and capacity: the sample copies
// no column, and a later Append to t cannot reach it. Otherwise the kept
// rows are gathered into new columns, exactly as appending them would
// build them.
func (t *Table) Sample(name string, ratio float64, seed int64) *Table {
	if ratio < 0 || ratio > 1 {
		panic(fmt.Sprintf("storage: sample ratio %v out of [0,1]", ratio))
	}
	s := NewTable(name, t.schema)
	n := t.data.numRows
	if ratio == 1 {
		for pos := range s.data.cols {
			s.data.cols[pos] = t.data.cols[pos].view(n)
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		var kept []int32
		for id := range n {
			if rng.Float64() < ratio {
				kept = append(kept, int32(id))
			}
		}
		for pos := range s.data.cols {
			src, dst := &t.data.cols[pos], &s.data.cols[pos]
			for x, id := range kept {
				dst.push(src.Value(int(id)), x)
			}
		}
		n = len(kept)
	}
	s.data.numRows = n
	for pos := range s.data.cols {
		s.data.cols[pos].attachIndex(s.data.cols)
	}
	return s
}
