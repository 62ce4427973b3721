package rel

import (
	"fmt"
	"strings"
)

// Row is a tuple of values. Rows are positional; column names live in the
// Schema that accompanies the row stream.
type Row []Value

// Clone returns a deep-enough copy of the row (values are immutable).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Concat returns a new row holding r followed by o, as produced by joins.
func (r Row) Concat(o Row) Row {
	out := make(Row, 0, len(r)+len(o))
	out = append(out, r...)
	out = append(out, o...)
	return out
}

// String renders the row for debugging.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Column describes one attribute of a table or intermediate result.
type Column struct {
	// Table is the (possibly aliased) relation the column belongs to.
	// Intermediate results keep the base-table attribution so that
	// predicates can be resolved against join outputs.
	Table string
	// Name is the column name within its table.
	Name string
	// Kind is the column's declared type.
	Kind Kind
}

// QualifiedName returns "table.name".
func (c Column) QualifiedName() string { return c.Table + "." + c.Name }

// Schema is an ordered list of columns describing a row stream.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Columns: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// IndexOf resolves a column reference. A table qualifier of "" matches any
// table, but the name must then be unambiguous; an error is returned for
// unknown or ambiguous references.
func (s *Schema) IndexOf(table, name string) (int, error) {
	switch i, n := s.Lookup(table, name); {
	case n > 1:
		return -1, fmt.Errorf("rel: ambiguous column %q", name)
	case n == 0 && table != "":
		return -1, fmt.Errorf("rel: unknown column %s.%s", table, name)
	case n == 0:
		return -1, fmt.Errorf("rel: unknown column %q", name)
	default:
		return i, nil
	}
}

// Lookup is IndexOf without an error value: matches is how many columns
// the reference matches (it stops counting at 2), and i the position of
// the first one, or -1 when there is none. It allocates nothing.
func (s *Schema) Lookup(table, name string) (i, matches int) {
	i = -1
	for j, c := range s.Columns {
		if c.Name != name || table != "" && c.Table != table {
			continue
		}
		if matches++; matches == 1 {
			i = j
		} else {
			break
		}
	}
	return i, matches
}

// MustIndexOf is IndexOf for callers that have already resolved names.
func (s *Schema) MustIndexOf(table, name string) int {
	i, err := s.IndexOf(table, name)
	if err != nil {
		panic(err)
	}
	return i
}

// Concat returns the schema of a join of s and o, preserving order.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Columns)+len(o.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, o.Columns...)
	return &Schema{Columns: cols}
}

// Project returns a schema containing just the given column positions.
func (s *Schema) Project(idx []int) *Schema {
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = s.Columns[j]
	}
	return &Schema{Columns: cols}
}

// String renders the schema for debugging.
func (s *Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = fmt.Sprintf("%s %s", c.QualifiedName(), c.Kind)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
