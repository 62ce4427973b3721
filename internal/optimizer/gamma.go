// Package optimizer implements the cost-based query optimizer: a
// Selinger-style bottom-up dynamic-programming search over join orders
// (left-deep and bushy) with physical operator selection, PostgreSQL-
// style cardinality estimation, and — the hook the paper's Algorithm 1
// relies on — a validated-cardinality store Γ that overrides the
// histogram estimates for any relation set that sampling has validated.
//
// A randomized (GEQO-like) search replaces the DP when the number of
// joined relations exceeds a threshold, mirroring PostgreSQL's behaviour
// that the paper notes in §3.3.2.
package optimizer

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"reopt/internal/plan"
	"reopt/internal/sql"
)

// Gamma is the validated-cardinality store Γ of Algorithm 1: a map from
// a relation set (the unordered set of aliases joined, including
// singleton sets for validated leaf selections) to the sampling-estimated
// row count for that set under the query's predicates. A set is a mask
// over the FROM-list positions of the query the store was made for, so Γ
// is per-query: the same set means the same logical sub-result only
// while predicates are fixed.
type Gamma struct {
	from []sql.TableRef // the FROM list the masks index
	m    map[uint64]float64
}

// NewGamma returns an empty store for q's FROM list.
func NewGamma(q *sql.Query) *Gamma {
	return &Gamma{from: q.Tables, m: make(map[uint64]float64)}
}

// Len returns the number of validated entries.
func (g *Gamma) Len() int {
	if g == nil {
		return 0
	}
	return len(g.m)
}

// Get returns the validated cardinality for the relation set mask, if
// any.
func (g *Gamma) Get(mask uint64) (float64, bool) {
	if g == nil {
		return 0, false
	}
	v, ok := g.m[mask]
	return v, ok
}

// Set records a validated cardinality, clamped at zero. It panics on an
// empty mask or one naming a position past the FROM list.
func (g *Gamma) Set(mask uint64, rows float64) {
	if mask == 0 || bits.Len64(mask) > len(g.from) {
		panic(fmt.Sprintf("optimizer: Γ set %#x outside a %d-table FROM list", mask, len(g.from)))
	}
	if rows < 0 {
		rows = 0
	}
	g.m[mask] = rows
}

// Snapshot returns a sorted, human-readable dump for traces and tests:
// each set as its aliases in canonical order, joined by "+".
func (g *Gamma) Snapshot() string {
	if g == nil || len(g.m) == 0 {
		return "{}"
	}
	type entry struct {
		key  string
		rows float64
	}
	entries := make([]entry, 0, len(g.m))
	var aliases []string
	for mask, rows := range g.m {
		aliases = aliases[:0]
		for s := mask; s != 0; s &= s - 1 {
			aliases = append(aliases, g.from[bits.TrailingZeros64(s)].Alias)
		}
		entries = append(entries, entry{plan.CanonicalSet(aliases), rows})
	}
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	parts := make([]string, len(entries))
	for i, e := range entries {
		parts[i] = fmt.Sprintf("%s=%.3f", strings.ReplaceAll(e.key, plan.AliasSep, "+"), e.rows)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// madeFor reports whether g's masks index q's FROM list.
func (g *Gamma) madeFor(q *sql.Query) bool { return slices.Equal(g.from, q.Tables) }
