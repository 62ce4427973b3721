// Package storage implements the in-memory storage engine: column-major
// tables (each column one typed slice, written in place by Append) with
// page-granular accounting (so the cost model has real page counts to
// work with), one sorted permutation per column (ColumnRuns) that ANALYZE
// reads and that a secondary index keeps for point lookups, and
// Bernoulli table sampling for the sampling-based estimator.
package storage

import (
	"fmt"
	"math/rand"
	"slices"
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
// resolution is consistent. Each column is stored as its declared kind,
// the only kind Append lets into it beside NULL.
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
	for pos, c := range cols {
		t.data.cols[pos].Kind = c.Kind
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
// row itself is not kept). The row length must match the schema, and
// each value must be NULL or of its column's declared kind: a refused
// row writes nothing. A column's sorted permutation, built before, goes
// stale: the column gets a fresh slot (attachIndex), sorted again by its
// next reader. Append must not run concurrently with any reader of the
// table.
func (t *Table) Append(row rel.Row) error {
	if len(row) != t.schema.Len() {
		return fmt.Errorf("storage: %s: row has %d values, schema has %d columns",
			t.name, len(row), t.schema.Len())
	}
	for pos, v := range row {
		if k := t.data.cols[pos].Kind; !v.IsNull() && v.Kind() != k {
			return fmt.Errorf("storage: %s.%s: column of kind %s cannot hold %s value %v",
				t.name, t.schema.Columns[pos].Name, k, v.Kind(), v)
		}
	}
	t.data.appendRow(row)
	return nil
}

// Grow reserves room for n more rows in every column's typed slice, so
// appending them reallocates none (NULL marking is not reserved).
func (t *Table) Grow(n int) {
	for pos := range t.data.cols {
		c := &t.data.cols[pos]
		switch c.Kind {
		case rel.KindFloat:
			c.Floats = slices.Grow(c.Floats, n)
		case rel.KindString:
			c.Strs = slices.Grow(c.Strs, n)
		default:
			c.Ints = slices.Grow(c.Ints, n)
		}
	}
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

// ColumnBytes is what t's columns hold in memory (typed slices and NULL
// marking), leaving out every array t shares with the same column of
// base (nil: none) — a full-ratio sample shares all its columns with its
// table. String payloads are not counted.
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

// IndexBytes is what t's sorted permutations hold so far: each one t
// sorted itself, 4 bytes a non-NULL row and, for an indexed column's
// runs, 4 a distinct value (perm), and the ordered copies gathered
// (copies). Safe to call while lookups build them.
func (t *Table) IndexBytes() (perm, copies int64) {
	for pos := range t.data.cols {
		if ix := t.data.cols[pos].idx; ix != nil {
			perm += ix.permBytes.Load()
			copies += ix.copyBytes.Load()
		}
	}
	return perm, copies
}

// SecondaryIndexBytes is IndexBytes' perm: on a base table, which range
// lookups reach only through its samples, its secondary indexes'.
func (t *Table) SecondaryIndexBytes() int64 {
	perm, _ := t.IndexBytes()
	return perm
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
	c := &t.data.cols[pos]
	if c.idx == nil || !c.idx.indexed && c.idx.perm != nil {
		// An unindexed slot built its permutation without the runs
		// Lookup reads, so a built one is replaced.
		c.idx = newSortedIndex(&t.data, pos, true)
	}
	c.idx.indexed = true
	c.idx.sorted()
	idx := &Index{table: t, column: column, colPos: pos}
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
// no column, and a later Append to t cannot reach it; a column whose
// permutation t has built reads it too, immutable as it is, but keeps its
// own slot (an unbuilt one would be built at whatever length t has by
// then). Otherwise the kept rows are gathered into new columns, exactly
// as appending them would build them. Sample must not run concurrently
// with an Append to t or a first read of t's permutations.
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
		s.data.attachIndex(pos)
		if own, src := s.data.cols[pos].idx, t.data.cols[pos].idx; ratio == 1 && own != nil && src != nil && src.perm != nil {
			own.once.Do(func() { own.perm, own.runs = src.perm, src.runs })
		}
	}
	return s
}
