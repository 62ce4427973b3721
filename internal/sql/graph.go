package sql

import (
	"errors"
	"fmt"
)

// ErrJoinEndpoints marks a join predicate whose endpoints are not two
// distinct FROM entries (an alias the FROM list lacks, or one entry on
// both sides). No plan node could apply it — it crosses no split and is
// not a filter — so the planner and the validation engine both refuse
// its query (Graph.Err). The parser rejects it in SQL text.
var ErrJoinEndpoints = errors.New("join predicate does not join two distinct FROM entries")

// Graph is one query's join graph, derived once per request by NewGraph
// and read by both sides of Γ — the optimizer's planner and the
// validation engine's prepared state — so that they name every relation
// set, filter and join predicate alike (DESIGN.md §10). It is not cached
// on Query: a Query is a value its readers copy and change, and a cached
// graph would travel with the copy. A Graph is immutable.
type Graph struct {
	Query *Query // the query the graph was derived from
	Rels  []Rel  // one per FROM position
	// Edges holds the join predicates in query order, duplicates included.
	Edges []Edge
	// Err wraps ErrJoinEndpoints for the first join predicate that does
	// not join two distinct FROM entries; Optimizer.Prepare and
	// executor.NewPrepared refuse a graph with it.
	Err error
}

// Rel is one FROM entry: its mask bit, 1 << its position, and the
// query's selections on its alias, in query order.
type Rel struct {
	Bit     uint64
	Filters []Selection
}

// Edge is one join predicate as written (Pred) and canonical (Canon),
// with Canon's rendering (Key) and the bits of its endpoints'
// aliases, Canon.Left's (L) and Canon.Right's (R).
type Edge struct {
	Pred, Canon JoinPred
	Key         string
	L, R        uint64
}

// Crosses reports whether the predicate connects the disjoint relation
// sets a and b.
func (e *Edge) Crosses(a, b uint64) bool {
	return e.L&a != 0 && e.R&b != 0 || e.L&b != 0 && e.R&a != 0
}

// NewGraph derives q's join graph. A join predicate whose endpoints are
// not two distinct FROM entries sets Err.
func NewGraph(q *Query) *Graph {
	g := &Graph{Query: q, Rels: make([]Rel, len(q.Tables)), Edges: make([]Edge, len(q.Joins))}
	all := make([]Selection, 0, len(q.Selections)) // every relation's filters, by position
	for i, t := range q.Tables {
		g.Rels[i].Bit = 1 << uint(i)
		start := len(all)
		for _, f := range q.Selections {
			if f.Col.Table == t.Alias {
				all = append(all, f)
			}
		}
		if len(all) > start {
			g.Rels[i].Filters = all[start:len(all):len(all)]
		}
	}
	for i, j := range q.Joins {
		c := j.Canonical()
		e := Edge{Pred: j, Canon: c, Key: c.String(), L: q.Bit(c.Left.Table), R: q.Bit(c.Right.Table)}
		if g.Err == nil && (e.L == 0 || e.R == 0 || e.L == e.R) {
			g.Err = fmt.Errorf("sql: %s: %w", j, ErrJoinEndpoints)
		}
		g.Edges[i] = e
	}
	return g
}

// Bit returns the mask bit of the FROM entry visible under alias, 1 <<
// its position, or 0 when there is none (or it is past the 64th): the
// one place an alias becomes a bit.
func (q *Query) Bit(alias string) uint64 {
	for i, t := range q.Tables {
		if t.Alias == alias {
			return 1 << uint(i)
		}
	}
	return 0
}
