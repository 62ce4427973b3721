package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/plan"
	"reopt/internal/sql"
	"reopt/internal/workload/ott"
)

// graphQuery joins t01..t0k of a chainCatalog along the given alias-pair
// edges (1-based), with a filter on every other table.
func graphQuery(t testing.TB, cat *catalog.Catalog, k int, edges [][2]int) *sql.Query {
	t.Helper()
	var from, where []string
	for i := 1; i <= k; i++ {
		from = append(from, tname(i))
		if i%2 == 0 {
			where = append(where, fmt.Sprintf("%s.v = %d", tname(i), i%11))
		}
	}
	for n, e := range edges {
		col := "k"
		if n%3 == 2 {
			col = "v" // an unindexed join column: no index nested loop
		}
		where = append(where, fmt.Sprintf("%s.%s = %s.%s", tname(e[0]), col, tname(e[1]), col))
	}
	text := "SELECT COUNT(*) FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		text += " WHERE " + strings.Join(where, " AND ")
	}
	q, err := sql.Parse(text, cat)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	return q
}

// keyOf renders the canonical Γ key of a relation-set mask.
func keyOf(q *sql.Query, mask uint64) string {
	var aliases []string
	for i, tr := range q.Tables {
		if mask&(1<<uint(i)) != 0 {
			aliases = append(aliases, tr.Alias)
		}
	}
	return plan.CanonicalSet(aliases)
}

func sameBits(t *testing.T, label string, got, want *plan.Plan) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() || got.Fingerprint() != got.Root.Fingerprint() {
		t.Fatalf("%s: fingerprint\n got  %s\n want %s\n tree %s", label, got.Fingerprint(), want.Fingerprint(), got.Root.Fingerprint())
	}
	var g, w []plan.Node
	plan.Walk(got.Root, func(n plan.Node) { g = append(g, n) })
	plan.Walk(want.Root, func(n plan.Node) { w = append(w, n) })
	for i := range g {
		if math.Float64bits(g[i].EstRows()) != math.Float64bits(w[i].EstRows()) ||
			math.Float64bits(g[i].Cost()) != math.Float64bits(w[i].Cost()) {
			t.Fatalf("%s: node %d: rows %v cost %v, from scratch rows %v cost %v",
				label, i, g[i].EstRows(), g[i].Cost(), w[i].EstRows(), w[i].Cost())
		}
	}
}

// TestIncrementalPlanningRandomGraphs merges seeded random Δs — singleton
// and join sets, fresh and repeated values — into a retained planner
// over chain, star, cycle and disconnected join graphs (the last needs
// the cross-product pass), bushy on and off, under every estimation
// profile, and requires each re-plan to equal a fresh planner's given
// the whole Γ, bit for bit.
func TestIncrementalPlanningRandomGraphs(t *testing.T) {
	const k = 6
	cat := chainCatalog(t, k, 300)
	shapes := map[string][][2]int{
		"chain":        {{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}},
		"star":         {{1, 2}, {1, 3}, {1, 4}, {1, 5}, {1, 6}},
		"cycle":        {{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 1}},
		"disconnected": {{1, 2}, {2, 3}, {4, 5}},
	}
	type variant struct {
		name string
		cfg  Config
	}
	variants := []variant{{"postgres", DefaultConfig()}, {"leftdeep", DefaultConfig()},
		{"systemA", DefaultConfig()}, {"systemB", DefaultConfig()}, {"geqo", DefaultConfig()}}
	variants[1].cfg.BushyTrees = false
	variants[2].cfg.Profile = SystemAProfile()
	variants[3].cfg.Profile = SystemBProfile()
	variants[4].cfg.DPThreshold = 3
	for name, edges := range shapes {
		q := graphQuery(t, cat, k, edges)
		for _, v := range variants {
			rng := rand.New(rand.NewSource(int64(len(name)) + int64(len(v.name))))
			opt := New(cat, v.cfg)
			pl, err := opt.Prepare(sql.NewGraph(q), nil)
			if err != nil {
				t.Fatal(err)
			}
			whole := NewGamma(q)
			for step := 0; step < 25; step++ {
				label := fmt.Sprintf("%s/%s step %d", name, v.name, step)
				got, err := pl.Plan()
				if err != nil {
					t.Fatal(err)
				}
				want, err := opt.Optimize(q, whole)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, label, got, want)
				var sets []SetRows
				for n := rng.Intn(4); n >= 0; n-- {
					mask := uint64(1 + rng.Intn(1<<k-1))
					if rng.Intn(3) == 0 {
						mask = 1 << uint(rng.Intn(k))
					}
					rows := []float64{0, 0.5, 1, 7, 300, 1e5}[rng.Intn(6)] * float64(1+rng.Intn(2))
					sets = append(sets, SetRows{Mask: mask, Key: keyOf(q, mask), Rows: rows})
				}
				added := 0
				for _, d := range sets {
					if _, ok := whole.Get(d.Mask); !ok {
						added++
					}
					whole.Set(d.Mask, d.Rows)
				}
				if pl.Merge(sets) != added {
					t.Fatalf("%s: merge counts differ", label)
				}
			}
		}
	}
}

// TestMemoizedPlanMatchesTree: what the planner memoizes while
// backtracking equals what the tree renders — the fingerprint, and the
// join sets against those derived from tree(P).
func TestMemoizedPlanMatchesTree(t *testing.T) {
	cat := chainCatalog(t, 6, 200)
	q := chainQuery(t, cat, 6)
	p, err := New(cat, DefaultConfig()).Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint() != p.Root.Fingerprint() {
		t.Errorf("memoized fingerprint %q, tree renders %q", p.Fingerprint(), p.Root.Fingerprint())
	}
	for _, s := range p.JoinSets() {
		if bits.OnesCount64(s) < 2 {
			t.Errorf("join set %b has fewer than two relations", s)
		}
	}
	if tree := (&plan.Plan{Root: p.Root, Query: q}).JoinSets(); !slices.Equal(p.JoinSets(), tree) || len(tree) != 5 {
		t.Errorf("memoized join sets %b, tree(P) has %b", p.JoinSets(), tree)
	}
}

// TestPlanFingerprintConcurrentReads reads one plan's memoized
// fingerprint and join sets from four goroutines; run under -race.
func TestPlanFingerprintConcurrentReads(t *testing.T) {
	cat := chainCatalog(t, 5, 200)
	p, err := New(cat, DefaultConfig()).Optimize(chainQuery(t, cat, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Root.Fingerprint()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if p.Fingerprint() != want || len(p.JoinSets()) != 4 || plan.Classify(p, p) != plan.SamePlan {
					t.Error("concurrent read saw a different plan identity")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// ottChain6 is the paper-shaped planning problem: a 6-table OTT chain.
func ottChain6(tb testing.TB) (*catalog.Catalog, *sql.Query) {
	tb.Helper()
	cat, err := ott.Generate(ott.Config{Seed: 1, RowsPerValue: 10})
	if err != nil {
		tb.Fatal(err)
	}
	qs, err := ott.Queries(cat, ott.QueryConfig{NumTables: 6, SameConstant: 4, Count: 1, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return cat, qs[0]
}

// replanDeltas records the Δ a validation of the query's first plan
// merges — one entry per plan node, leaves included — in two value
// variants, so alternating them makes every merge change every entry
// (what round 2 of Algorithm 1 looks like to the planner).
func replanDeltas(tb testing.TB, pl *Planner, q *sql.Query) [2][]SetRows {
	tb.Helper()
	p, err := pl.Plan()
	if err != nil {
		tb.Fatal(err)
	}
	var deltas [2][]SetRows
	add := func(mask uint64, a, b float64) {
		deltas[0] = append(deltas[0], SetRows{Mask: mask, Key: keyOf(q, mask), Rows: a})
		deltas[1] = append(deltas[1], SetRows{Mask: mask, Key: keyOf(q, mask), Rows: b})
	}
	for i := range q.Tables {
		add(1<<uint(i), float64(10+i), float64(20+i))
	}
	for i, s := range p.JoinSets() {
		add(s, float64(i), float64(100*i))
	}
	return deltas
}

// TestReplanAllocs bounds what one re-plan round allocates on a 6-table
// chain: the winning tree's nodes, schemas, predicates and fingerprint
// strings — nothing per candidate split.
func TestReplanAllocs(t *testing.T) {
	cat, q := ottChain6(t)
	pl, err := New(cat, DefaultConfig()).Prepare(sql.NewGraph(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	deltas := replanDeltas(t, pl, q)
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		pl.Merge(deltas[i%2])
		i++
		if _, err := pl.Plan(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 45 {
		t.Errorf("a re-plan round allocates %.0f objects, ceiling 45", allocs)
	}
}

// BenchmarkOptimizeRounds splits Algorithm 1's planning cost on a
// 6-table chain: first is what round 1 pays (resolve the query, price
// every cell, build the plan); replan is what each later round pays
// (merge a Δ that changes every entry, re-price, build).
func BenchmarkOptimizeRounds(b *testing.B) {
	cat, q := ottChain6(b)
	opt := New(cat, DefaultConfig())
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pl, err := opt.Prepare(sql.NewGraph(q), nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pl.Plan(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replan", func(b *testing.B) {
		pl, err := opt.Prepare(sql.NewGraph(q), nil)
		if err != nil {
			b.Fatal(err)
		}
		deltas := replanDeltas(b, pl, q)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pl.Merge(deltas[i%2])
			if _, err := pl.Plan(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
