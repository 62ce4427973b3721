package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"reopt/internal/executor"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sql"
)

// samePlanBits fails unless the two plans have the same fingerprint and,
// node for node, bit-identical Rows and CostVal.
func samePlanBits(t *testing.T, label string, got, want *plan.Plan) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprint\n got  %s\n want %s", label, got.Fingerprint(), want.Fingerprint())
	}
	if got.Fingerprint() != got.Root.Fingerprint() {
		t.Fatalf("%s: memoized fingerprint differs from the rendered one", label)
	}
	var g, w []plan.Node
	plan.Walk(got.Root, func(n plan.Node) { g = append(g, n) })
	plan.Walk(want.Root, func(n plan.Node) { w = append(w, n) })
	for i := range g {
		if math.Float64bits(g[i].EstRows()) != math.Float64bits(w[i].EstRows()) ||
			math.Float64bits(g[i].Cost()) != math.Float64bits(w[i].Cost()) {
			t.Fatalf("%s: node %d (%v): rows %v cost %v, from scratch rows %v cost %v",
				label, i, g[i].Aliases(), g[i].EstRows(), g[i].Cost(), w[i].EstRows(), w[i].Cost())
		}
	}
}

// TestIncrementalPlanningMatchesFromScratch drives Algorithm 1's rounds
// by hand over every bench-shaped query: after each Merge(Δ) the
// retained planner must plan — and re-cost — exactly what a fresh
// planner given the whole Γ does.
func TestIncrementalPlanningMatchesFromScratch(t *testing.T) {
	rounds := 0
	for _, w := range benchShapedWorkloads(t) {
		opt := optimizer.New(w.cat, optimizer.DefaultConfig())
		for qi, q := range w.queries {
			pl, err := opt.Prepare(sql.NewGraph(q), nil)
			if err != nil {
				t.Fatal(err)
			}
			whole := optimizer.NewGamma(q)
			cache := mustPrepare(t, q, executor.NewSkeletonCache(0, 0), w.cat, 0)
			var prev *plan.Plan
			for i := 1; i <= 12; i++ {
				label := fmt.Sprintf("%s query %d round %d", w.name, qi, i)
				p, err := pl.Plan()
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := opt.Optimize(q, whole)
				if err != nil {
					t.Fatal(err)
				}
				samePlanBits(t, label, p, fresh)
				rounds++
				if prev != nil && p.Fingerprint() == prev.Fingerprint() {
					break
				}
				ests, err := EstimatePlans(context.Background(), []*plan.Plan{p}, w.cat, cache)
				if err != nil {
					t.Fatal(err)
				}
				added := 0
				for _, d := range ests[0].Sets {
					if _, ok := whole.Get(d.Mask); !ok {
						added++
					}
					whole.Set(d.Mask, d.Rows)
				}
				if got := pl.Merge(ests[0].Sets); got != added {
					t.Fatalf("%s: planner merge added %d sets, Γ built by mask added %d", label, got, added)
				}
				rp, err := pl.Recost(p)
				if err != nil {
					t.Fatal(err)
				}
				freshRp, err := opt.Recost(q, p, whole)
				if err != nil {
					t.Fatal(err)
				}
				samePlanBits(t, label+" recost", rp, freshRp)
				prev = p
			}
		}
	}
	if rounds < 80 {
		t.Fatalf("only %d rounds compared", rounds)
	}
}
