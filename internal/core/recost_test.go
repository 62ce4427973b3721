package core

import (
	"context"
	"fmt"
	"testing"

	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sql"
)

// TestRecostMatchesPlannerNodeByNode: cost_s (Theorems 5 and 6, the §5.4
// early stop) is the planner's own cost model under the refined Γ. Over
// Algorithm 1's rounds on every bench-shaped query and the GROUP BY
// queries, Recost of each plan the planner builds reproduces every
// node's Rows and CostVal under the same Γ — inner scans of index nested
// loops included — and after a Merge, Recost of the previous round's
// tree equals what Plan assigns when it picks that tree again,
// aggregates included.
func TestRecostMatchesPlannerNodeByNode(t *testing.T) {
	ws := benchShapedWorkloads(t)
	tpchW := &ws[len(ws)-1]
	for _, src := range groupBySQL {
		tpchW.queries = append(tpchW.queries, mustParse(t, src, tpchW.cat))
	}
	// The statistics put this join at one row and sampling at about 50,
	// below the distinct count of r1.b, so the aggregate's estimate moves
	// with the Merge while the tree stays.
	ws[0].queries = append(ws[0].queries, mustParse(t,
		"SELECT COUNT(*) FROM r1, r2 WHERE r1.a = 3 AND r2.a = 3 AND r1.b = r2.b GROUP BY r1.b", ws[0].cat))
	ctx := context.Background()
	var plans, inner, aggs, aggMoved int
	for _, w := range ws {
		opt := optimizer.New(w.cat, optimizer.DefaultConfig())
		for qi, q := range w.queries {
			pl, err := opt.Prepare(sql.NewGraph(q), nil)
			if err != nil {
				t.Fatal(err)
			}
			cache := mustPrepare(t, q, nil, w.cat, 0)
			var prev *plan.Plan
			for round := 1; round <= 20; round++ {
				label := fmt.Sprintf("%s query %d round %d", w.name, qi, round)
				p, err := pl.Plan()
				if err != nil {
					t.Fatal(err)
				}
				plans++
				plan.Walk(p.Root, func(n plan.Node) {
					switch x := n.(type) {
					case *plan.JoinNode:
						if x.Kind == plan.IndexNestedLoop {
							inner++
						}
					case *plan.AggregateNode:
						aggs++
					}
				})
				sameEstimates(t, label, p, recost(t, pl, p))
				if prev != nil && prev.Fingerprint() == p.Fingerprint() {
					sameEstimates(t, label+" (previous tree after Merge)", p, recost(t, pl, prev))
					if _, ok := p.Root.(*plan.AggregateNode); ok && p.EstRows() != prev.EstRows() {
						aggMoved++
					}
					break
				}
				ests, err := EstimatePlans(ctx, []*plan.Plan{p}, w.cat, cache)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				pl.Merge(ests[0].Sets)
				prev = p
			}
		}
	}
	if inner == 0 || aggs == 0 || aggMoved == 0 {
		t.Errorf("%d plans: %d index nested loops, %d aggregates, %d aggregates re-estimated by a Merge; want each > 0",
			plans, inner, aggs, aggMoved)
	}
}

func recost(t *testing.T, pl *optimizer.Planner, p *plan.Plan) *plan.Plan {
	t.Helper()
	rp, err := pl.Recost(p)
	if err != nil {
		t.Fatalf("recost %s: %v", p.Fingerprint(), err)
	}
	return rp
}

// sameEstimates requires two plans of one shape to carry bit-identical
// Rows and CostVal at every node.
func sameEstimates(t *testing.T, label string, want, got *plan.Plan) {
	t.Helper()
	if want.Fingerprint() != got.Root.Fingerprint() {
		t.Fatalf("%s: recost changed the tree:\n%s\n%s", label, want.Fingerprint(), got.Root.Fingerprint())
	}
	var ws, gs []plan.Node
	plan.Walk(want.Root, func(n plan.Node) { ws = append(ws, n) })
	plan.Walk(got.Root, func(n plan.Node) { gs = append(gs, n) })
	for i := range ws {
		if ws[i].EstRows() != gs[i].EstRows() || ws[i].Cost() != gs[i].Cost() {
			t.Errorf("%s: node %d %s: planner rows=%v cost=%v, Recost rows=%v cost=%v",
				label, i, ws[i].Fingerprint(), ws[i].EstRows(), ws[i].Cost(), gs[i].EstRows(), gs[i].Cost())
		}
	}
}
