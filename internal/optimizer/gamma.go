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
	"sort"
	"strings"

	"reopt/internal/plan"
)

// Gamma is the validated-cardinality store Γ of Algorithm 1: a map from
// a canonical relation-set key (the unordered set of aliases joined,
// including singleton sets for validated leaf selections) to the
// sampling-estimated row count for that set under the query's
// predicates. Γ is per-query: the same alias set means the same logical
// sub-result only while predicates are fixed.
type Gamma struct {
	m map[string]float64
}

// NewGamma returns an empty store.
func NewGamma() *Gamma { return &Gamma{m: make(map[string]float64)} }

// Len returns the number of validated entries.
func (g *Gamma) Len() int {
	if g == nil {
		return 0
	}
	return len(g.m)
}

// Get returns the validated cardinality for the canonical key, if any.
func (g *Gamma) Get(key string) (float64, bool) {
	if g == nil {
		return 0, false
	}
	v, ok := g.m[key]
	return v, ok
}

// Set records a validated cardinality.
func (g *Gamma) Set(key string, rows float64) {
	if rows < 0 {
		rows = 0
	}
	g.m[key] = rows
}

// Merge folds the estimates Δ into Γ (line 10 of Algorithm 1) and
// returns the number of keys that were new — zero new keys is exactly
// the "covered" condition of Theorem 1.
func (g *Gamma) Merge(delta map[string]float64) (added int) {
	for k, v := range delta {
		if _, ok := g.m[k]; !ok {
			added++
		}
		g.Set(k, v)
	}
	return added
}

// Snapshot returns a sorted, human-readable dump for traces and tests.
func (g *Gamma) Snapshot() string {
	if g == nil || len(g.m) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(g.m))
	for k := range g.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.3f", strings.ReplaceAll(k, plan.AliasSep, "+"), g.m[k])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
