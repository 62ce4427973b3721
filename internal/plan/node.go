// Package plan defines physical query plans and the join-tree formalism
// of the paper: tree(P) as the relation sets of a plan's joins (§3.1,
// Plan.JoinSets), local vs global transformations (Definitions 1 and 4)
// and plan coverage (Definition 2).
package plan

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"reopt/internal/rel"
	"reopt/internal/sql"
)

// JoinKind identifies a physical join operator.
type JoinKind uint8

const (
	// NestedLoop is a plain tuple-at-a-time nested-loop join.
	NestedLoop JoinKind = iota
	// IndexNestedLoop probes an index on the inner relation.
	IndexNestedLoop
	// HashJoin builds a hash table on the inner (right) input.
	HashJoin
	// MergeJoin sorts both inputs and merges.
	MergeJoin
)

// String returns the operator's display name.
func (k JoinKind) String() string {
	switch k {
	case NestedLoop:
		return "NestLoop"
	case IndexNestedLoop:
		return "IndexNestLoop"
	case HashJoin:
		return "HashJoin"
	case MergeJoin:
		return "MergeJoin"
	default:
		return fmt.Sprintf("JoinKind(%d)", uint8(k))
	}
}

// AccessKind identifies a base-table access path.
type AccessKind uint8

const (
	// SeqScan reads the heap sequentially.
	SeqScan AccessKind = iota
	// IndexScan fetches rows through an index on one equality filter.
	IndexScan
)

// String returns the access path's display name.
func (k AccessKind) String() string {
	if k == IndexScan {
		return "IndexScan"
	}
	return "SeqScan"
}

// Node is one operator of a physical plan.
type Node interface {
	// Schema describes the node's output columns (aliased attribution).
	Schema() *rel.Schema
	// EstRows is the optimizer's cardinality estimate for the node.
	EstRows() float64
	// Cost is the estimated total cost of producing all output rows.
	Cost() float64
	// Aliases returns the base-relation aliases under the node, in
	// left-to-right leaf order — the Appendix E encoding of the subtree.
	Aliases() []string
	// Fingerprint canonically identifies the physical subtree (operator
	// kinds, join order, access paths, predicates).
	Fingerprint() string
}

// ScanNode reads one base table, applying local filters.
type ScanNode struct {
	// Alias is the name the relation is visible under in the query.
	Alias string
	// Table is the catalog table name.
	Table string
	// Filters are the local predicates applied at the scan.
	Filters []sql.Selection
	// Access is the access path.
	Access AccessKind
	// IndexColumn is the indexed column driving an IndexScan; it must
	// appear in Filters with OpEq.
	IndexColumn string

	// OutSchema is the aliased schema of the scan output.
	OutSchema *rel.Schema
	// Rows and CostVal are the optimizer's estimates.
	Rows    float64
	CostVal float64
}

// Schema implements Node.
func (s *ScanNode) Schema() *rel.Schema { return s.OutSchema }

// EstRows implements Node.
func (s *ScanNode) EstRows() float64 { return s.Rows }

// Cost implements Node.
func (s *ScanNode) Cost() float64 { return s.CostVal }

// Aliases implements Node.
func (s *ScanNode) Aliases() []string { return []string{s.Alias} }

// Fingerprint implements Node.
func (s *ScanNode) Fingerprint() string {
	var sb strings.Builder
	sb.WriteString(s.Access.String())
	sb.WriteByte('(')
	sb.WriteString(s.Table)
	if s.Alias != s.Table {
		sb.WriteString(" AS ")
		sb.WriteString(s.Alias)
	}
	if s.Access == IndexScan {
		sb.WriteString(" USING ")
		sb.WriteString(s.IndexColumn)
	}
	if len(s.Filters) > 0 {
		preds := make([]string, len(s.Filters))
		for i, f := range s.Filters {
			preds[i] = f.String()
		}
		sort.Strings(preds)
		sb.WriteString(" FILTER ")
		sb.WriteString(strings.Join(preds, " AND "))
	}
	sb.WriteByte(')')
	return sb.String()
}

// JoinNode joins two inputs on equi-join predicates.
type JoinNode struct {
	// Kind is the physical join operator.
	Kind JoinKind
	// Left and Right are the outer and inner inputs respectively.
	Left, Right Node
	// Preds are the equi-join predicates connecting the two sides. For
	// IndexNestedLoop, Preds[0] drives the index probe.
	Preds []sql.JoinPred

	// OutSchema is Left.Schema ++ Right.Schema.
	OutSchema *rel.Schema
	// Rows and CostVal are the optimizer's estimates.
	Rows    float64
	CostVal float64
}

// Schema implements Node.
func (j *JoinNode) Schema() *rel.Schema { return j.OutSchema }

// EstRows implements Node.
func (j *JoinNode) EstRows() float64 { return j.Rows }

// Cost implements Node.
func (j *JoinNode) Cost() float64 { return j.CostVal }

// Aliases implements Node.
func (j *JoinNode) Aliases() []string {
	return append(j.Left.Aliases(), j.Right.Aliases()...)
}

// Fingerprint implements Node.
func (j *JoinNode) Fingerprint() string {
	preds := make([]string, len(j.Preds))
	for i, p := range j.Preds {
		preds[i] = p.Canonical().String()
	}
	return JoinFingerprint(j.Kind, preds, j.Left.Fingerprint(), j.Right.Fingerprint())
}

// JoinFingerprint renders a join node's fingerprint from its operator,
// the canonical strings of its predicates (sorted in place) and its
// inputs' fingerprints. A builder that already holds those parts uses
// it to fingerprint a tree while constructing it.
func JoinFingerprint(kind JoinKind, preds []string, left, right string) string {
	sort.Strings(preds)
	return kind.String() + "[" + strings.Join(preds, " AND ") + "](" + left + "," + right + ")"
}

// AggregateNode groups its input on GroupBy columns and emits one row
// per group: the group key values followed by COUNT(*).
type AggregateNode struct {
	// GroupBy are the grouping columns (resolved against Child's schema).
	GroupBy []sql.ColRef
	// Child is the input.
	Child Node

	// OutSchema is the group columns followed by a "count" column.
	OutSchema *rel.Schema
	// Rows and CostVal are the optimizer's estimates.
	Rows    float64
	CostVal float64
}

// Schema implements Node.
func (a *AggregateNode) Schema() *rel.Schema { return a.OutSchema }

// EstRows implements Node.
func (a *AggregateNode) EstRows() float64 { return a.Rows }

// Cost implements Node.
func (a *AggregateNode) Cost() float64 { return a.CostVal }

// Aliases implements Node.
func (a *AggregateNode) Aliases() []string { return a.Child.Aliases() }

// Fingerprint implements Node.
func (a *AggregateNode) Fingerprint() string {
	return AggregateFingerprint(a.GroupBy, a.Child.Fingerprint())
}

// AggregateFingerprint is JoinFingerprint's counterpart for a hash
// aggregate over an input whose fingerprint is already known.
func AggregateFingerprint(groupBy []sql.ColRef, child string) string {
	cols := make([]string, len(groupBy))
	for i, c := range groupBy {
		cols[i] = c.String()
	}
	sort.Strings(cols)
	return "HashAggregate[" + strings.Join(cols, ",") + "](" + child + ")"
}

// Plan is a complete physical plan for a query.
type Plan struct {
	// Root is the top operator (projection/count is applied by the
	// executor according to Query).
	Root Node
	// Query is the logical query the plan answers.
	Query *sql.Query

	// fp and joinSets are set once by Memoized and never written again,
	// so any number of goroutines may read them.
	fp       string
	joinSets []uint64
}

// Memoized returns a plan that carries what its builder learned while
// constructing the tree: the root's fingerprint, and the relation set of
// every join node as a bitmask over q.Tables positions. The round loop
// reads both once per comparison instead of re-rendering the tree.
// joinSets is sorted in place and kept.
func Memoized(root Node, q *sql.Query, fingerprint string, joinSets []uint64) *Plan {
	slices.Sort(joinSets)
	return &Plan{Root: root, Query: q, fp: fingerprint, joinSets: joinSets}
}

// Fingerprint identifies the physical plan; Algorithm 1's termination
// test "Pi is the same as Pi-1" compares fingerprints, so a plan that
// changed only a physical operator (a local transformation) still counts
// as a new plan, as in the paper.
func (p *Plan) Fingerprint() string {
	if p.fp != "" {
		return p.fp
	}
	return p.Root.Fingerprint()
}

// JoinSets returns tree(P) as unordered joins: the relation set of every
// join node as a bitmask over Query.Tables positions, ascending. A plan
// built by Memoized carries the list; for any other it is derived from
// the tree. Masks of two plans compare only under the same Query.
func (p *Plan) JoinSets() []uint64 {
	if p.fp != "" {
		return p.joinSets
	}
	var sets []uint64
	Walk(p.Root, func(n Node) {
		j, ok := n.(*JoinNode)
		if !ok {
			return
		}
		var mask uint64
		for _, alias := range j.Aliases() {
			mask |= p.Query.Bit(alias)
		}
		sets = append(sets, mask)
	})
	slices.Sort(sets)
	return sets
}

// Cost returns the root cost estimate.
func (p *Plan) Cost() float64 { return p.Root.Cost() }

// EstRows returns the root cardinality estimate.
func (p *Plan) EstRows() float64 { return p.Root.EstRows() }

// Explain renders the plan as an indented operator tree with estimates.
// With an annotate function, each operator's line also carries the text
// it returns for that node (EXPLAIN ANALYZE appends actual rows).
func (p *Plan) Explain(annotate ...func(Node) string) string {
	var sb strings.Builder
	var note func(Node) string
	if len(annotate) > 0 {
		note = annotate[0]
	}
	explainNode(&sb, p.Root, 0, note)
	return sb.String()
}

func explainNode(sb *strings.Builder, n Node, depth int, note func(Node) string) {
	write := func(ss ...string) {
		for _, s := range ss {
			sb.WriteString(s)
		}
	}
	list := func(sep string, n int, item func(i int) string) {
		for i := range n {
			if i > 0 {
				sb.WriteString(sep)
			}
			sb.WriteString(item(i))
		}
	}
	indent := func() {
		for range depth {
			sb.WriteString("  ")
		}
	}
	// estimates ends the operator's line: its estimates, then its note.
	estimates := func(rows, cost float64) {
		b := strconv.AppendFloat(append(make([]byte, 0, 64), "  (rows="...), rows, 'f', 1, 64)
		b = strconv.AppendFloat(append(b, " cost="...), cost, 'f', 1, 64)
		sb.Write(append(b, ')'))
		if note != nil {
			sb.WriteString(note(n))
		}
		sb.WriteByte('\n')
	}
	indent()
	switch t := n.(type) {
	case *ScanNode:
		write(t.Access.String(), " on ", t.Table)
		if t.Alias != t.Table {
			write(" AS ", t.Alias)
		}
		if t.Access == IndexScan {
			write(" (index on ", t.IndexColumn, ")")
		}
		estimates(t.Rows, t.CostVal)
		if len(t.Filters) > 0 {
			indent()
			write("  Filter: ")
			list(" AND ", len(t.Filters), func(i int) string { return t.Filters[i].String() })
			write("\n")
		}
	case *JoinNode:
		write(t.Kind.String())
		if len(t.Preds) == 0 {
			write(" (cross)")
		} else {
			write(" on ")
			list(" AND ", len(t.Preds), func(i int) string { return t.Preds[i].String() })
		}
		estimates(t.Rows, t.CostVal)
		explainNode(sb, t.Left, depth+1, note)
		explainNode(sb, t.Right, depth+1, note)
	case *AggregateNode:
		write("HashAggregate by ")
		list(", ", len(t.GroupBy), func(i int) string { return t.GroupBy[i].String() })
		estimates(t.Rows, t.CostVal)
		explainNode(sb, t.Child, depth+1, note)
	default:
		write("?unknown node\n")
	}
}

// Walk visits every node of the subtree rooted at n in pre-order.
func Walk(n Node, visit func(Node)) {
	visit(n)
	switch t := n.(type) {
	case *JoinNode:
		Walk(t.Left, visit)
		Walk(t.Right, visit)
	case *AggregateNode:
		Walk(t.Child, visit)
	}
}
