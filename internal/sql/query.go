package sql

import (
	"fmt"
	"sort"
	"strings"

	"reopt/internal/rel"
)

// CompareOp is a predicate comparison operator.
type CompareOp uint8

const (
	// OpEq is "=".
	OpEq CompareOp = iota
	// OpNe is "<>".
	OpNe
	// OpLt is "<".
	OpLt
	// OpLe is "<=".
	OpLe
	// OpGt is ">".
	OpGt
	// OpGe is ">=".
	OpGe
	// OpBetween is "BETWEEN lo AND hi" (inclusive).
	OpBetween
)

// String returns the SQL spelling of the operator.
func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBetween:
		return "BETWEEN"
	default:
		return fmt.Sprintf("CompareOp(%d)", uint8(op))
	}
}

// ColRef names a column through the alias it is visible under.
type ColRef struct {
	Table  string // alias (or table name when no alias was given)
	Column string
}

// String returns "table.column".
func (c ColRef) String() string { return c.Table + "." + c.Column }

// TableRef is one FROM-list entry.
type TableRef struct {
	// Name is the catalog table name.
	Name string
	// Alias is the name the table is visible under in the query; equals
	// Name when no alias was written.
	Alias string
}

// Selection is a local predicate: Col Op Value [AND Value2 for BETWEEN].
type Selection struct {
	Col    ColRef
	Op     CompareOp
	Value  rel.Value
	Value2 rel.Value // BETWEEN upper bound
}

// String renders the predicate in SQL.
func (s Selection) String() string {
	if s.Op == OpBetween {
		return s.Col.String() + " BETWEEN " + sqlLiteral(s.Value) + " AND " + sqlLiteral(s.Value2)
	}
	return s.Col.String() + " " + s.Op.String() + " " + sqlLiteral(s.Value)
}

// sqlLiteral renders a value as a SQL literal (single-quoted strings
// with ” escaping), so that Query.String() output reparses.
func sqlLiteral(v rel.Value) string {
	if v.Kind() == rel.KindString {
		return "'" + strings.ReplaceAll(v.AsString(), "'", "''") + "'"
	}
	return v.String()
}

// JoinPred is an equi-join predicate Left = Right across two tables.
type JoinPred struct {
	Left  ColRef
	Right ColRef
}

// String renders the predicate in SQL, as one allocation.
func (j JoinPred) String() string {
	return j.Left.Table + "." + j.Left.Column + " = " + j.Right.Table + "." + j.Right.Column
}

// Canonical returns the predicate with sides ordered by (table, column)
// so that A.x = B.y and B.y = A.x compare equal.
func (j JoinPred) Canonical() JoinPred {
	if j.Left.Table > j.Right.Table ||
		j.Left.Table == j.Right.Table && j.Left.Column > j.Right.Column {
		return JoinPred{Left: j.Right, Right: j.Left}
	}
	return j
}

// Query is a resolved select-project-join query: the logical form the
// optimizer and the re-optimizer operate on.
type Query struct {
	// Tables is the FROM list; aliases are unique.
	Tables []TableRef
	// Selections are the ANDed local predicates.
	Selections []Selection
	// Joins are the ANDed equi-join predicates.
	Joins []JoinPred
	// Projection lists output columns; empty means SELECT *.
	Projection []ColRef
	// CountStar is true for SELECT COUNT(*) queries, which project
	// nothing and return a single count row (or one count per group
	// when GroupBy is set).
	CountStar bool
	// GroupBy lists grouping columns; the output is the group keys
	// followed by COUNT(*) per group.
	GroupBy []ColRef
	// OrderBy optionally sorts the output.
	OrderBy []OrderKey
	// Limit caps the number of output rows; 0 means no limit.
	Limit int
}

// OrderKey is one ORDER BY element.
type OrderKey struct {
	Col  ColRef
	Desc bool
}

// TableByAlias returns the FROM entry visible under alias.
func (q *Query) TableByAlias(alias string) (TableRef, bool) {
	for _, t := range q.Tables {
		if t.Alias == alias {
			return t, true
		}
	}
	return TableRef{}, false
}

// Aliases returns the FROM aliases in declaration order.
func (q *Query) Aliases() []string {
	out := make([]string, len(q.Tables))
	for i, t := range q.Tables {
		out[i] = t.Alias
	}
	return out
}

// SelectionsOn returns the local predicates that apply to alias.
func (q *Query) SelectionsOn(alias string) []Selection {
	var out []Selection
	for _, s := range q.Selections {
		if s.Col.Table == alias {
			out = append(out, s)
		}
	}
	return out
}

// String renders the query as SQL text.
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	switch {
	case q.CountStar:
		sb.WriteString("COUNT(*)")
	case len(q.Projection) == 0:
		sb.WriteString("*")
	default:
		parts := make([]string, len(q.Projection))
		for i, c := range q.Projection {
			parts[i] = c.String()
		}
		sb.WriteString(strings.Join(parts, ", "))
	}
	sb.WriteString(" FROM ")
	fromParts := make([]string, len(q.Tables))
	for i, t := range q.Tables {
		if t.Alias != t.Name {
			fromParts[i] = t.Name + " AS " + t.Alias
		} else {
			fromParts[i] = t.Name
		}
	}
	sb.WriteString(strings.Join(fromParts, ", "))
	var preds []string
	for _, s := range q.Selections {
		preds = append(preds, s.String())
	}
	for _, j := range q.Joins {
		preds = append(preds, j.String())
	}
	if len(preds) > 0 {
		sb.WriteString(" WHERE ")
		sb.WriteString(strings.Join(preds, " AND "))
	}
	if len(q.GroupBy) > 0 {
		parts := make([]string, len(q.GroupBy))
		for i, c := range q.GroupBy {
			parts[i] = c.String()
		}
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(parts, ", "))
	}
	if len(q.OrderBy) > 0 {
		parts := make([]string, len(q.OrderBy))
		for i, k := range q.OrderBy {
			parts[i] = k.Col.String()
			if k.Desc {
				parts[i] += " DESC"
			}
		}
		sb.WriteString(" ORDER BY ")
		sb.WriteString(strings.Join(parts, ", "))
	}
	if q.Limit > 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
	}
	return sb.String()
}

// Fingerprint returns a canonical string identifying the logical query
// (order-insensitive over predicates), used for caching and test
// assertions.
func (q *Query) Fingerprint() string {
	tables := make([]string, len(q.Tables))
	for i, t := range q.Tables {
		tables[i] = t.Name + ":" + t.Alias
	}
	sort.Strings(tables)
	sels := make([]string, len(q.Selections))
	for i, s := range q.Selections {
		sels[i] = s.String()
	}
	sort.Strings(sels)
	joins := make([]string, len(q.Joins))
	for i, j := range q.Joins {
		joins[i] = j.Canonical().String()
	}
	sort.Strings(joins)
	return strings.Join(tables, ",") + "|" + strings.Join(sels, ",") + "|" + strings.Join(joins, ",")
}
