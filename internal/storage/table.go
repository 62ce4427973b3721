// Package storage implements the in-memory storage engine: heap tables
// with page-granular accounting (so the cost model has real page counts
// to work with), secondary hash indexes for point lookups, one sorted
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

// Table is an append-only in-memory heap of rows plus its indexes.
type Table struct {
	name        string
	schema      *rel.Schema
	rows        []rel.Row
	indexes     map[string]*Index
	rowsPerPage int
	colData     *ColStore // lazy column-major projection; nil until built
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
	return &Table{
		name:        name,
		schema:      rel.NewSchema(cols...),
		indexes:     make(map[string]*Index),
		rowsPerPage: DefaultRowsPerPage,
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *rel.Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int { return len(t.rows) }

// SetRowsPerPage overrides the heap page capacity (must be positive).
func (t *Table) SetRowsPerPage(n int) {
	if n <= 0 {
		panic("storage: rows per page must be positive")
	}
	t.rowsPerPage = n
}

// NumPages returns the heap page count implied by the row count.
func (t *Table) NumPages() int {
	if len(t.rows) == 0 {
		return 1
	}
	return (len(t.rows) + t.rowsPerPage - 1) / t.rowsPerPage
}

// PageOfRow returns the heap page that holds row id.
func (t *Table) PageOfRow(id int) int { return id / t.rowsPerPage }

// Append adds a row. The row length must match the schema; indexes are
// maintained incrementally.
func (t *Table) Append(row rel.Row) error {
	if len(row) != t.schema.Len() {
		return fmt.Errorf("storage: %s: row has %d values, schema has %d columns",
			t.name, len(row), t.schema.Len())
	}
	id := len(t.rows)
	t.rows = append(t.rows, row)
	t.colData = nil // invalidate the column-major projection
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

// Row returns the row with the given id. The returned slice must not be
// mutated.
func (t *Table) Row(id int) rel.Row { return t.rows[id] }

// Rows returns the underlying row slice for read-only scans.
func (t *Table) Rows() []rel.Row { return t.rows }

// ColData returns the table's column-major projection, building it on
// first use and caching it until the next Append. Callers must treat the
// result as immutable.
func (t *Table) ColData() *ColStore {
	if t.colData == nil {
		t.colData = BuildColStore(t)
	}
	return t.colData
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
func (t *Table) Sample(name string, ratio float64, seed int64) *Table {
	if ratio < 0 || ratio > 1 {
		panic(fmt.Sprintf("storage: sample ratio %v out of [0,1]", ratio))
	}
	rng := rand.New(rand.NewSource(seed))
	s := NewTable(name, t.schema)
	for _, row := range t.rows {
		if rng.Float64() < ratio {
			s.rows = append(s.rows, row)
		}
	}
	return s
}
