package executor

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sql"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpch"
)

// subtreeSig is the reference signature: one walk of the whole subtree
// per node, every filter and predicate rendered and sorted from scratch.
// sigMemo must reproduce it byte for byte — cache keys, the template
// index and faultinject tags are all derived from it.
func subtreeSig(n plan.Node) string {
	var toks []string
	plan.Walk(n, func(m plan.Node) {
		switch t := m.(type) {
		case *plan.ScanNode:
			toks = append(toks, "T:"+t.Alias+"="+t.Table)
			for _, f := range t.Filters {
				toks = append(toks, "F:"+f.String())
			}
		case *plan.JoinNode:
			for _, p := range t.Preds {
				toks = append(toks, "J:"+p.Canonical().String())
			}
		}
	})
	sort.Strings(toks)
	return plan.CanonicalSet(n.Aliases()) + "||" + strings.Join(toks, "&")
}

// TestSigMemoMatchesSubtreeSig checks every node of the OTT and TPC-H
// plans, in both memo fill orders (root first and leaves first).
func TestSigMemoMatchesSubtreeSig(t *testing.T) {
	var plans []*plan.Plan
	add := func(cat *catalog.Catalog, qs []*sql.Query) {
		for _, bushy := range []bool{true, false} {
			cfg := optimizer.DefaultConfig()
			cfg.BushyTrees = bushy
			opt := optimizer.New(cat, cfg)
			for _, q := range qs {
				p, err := opt.Optimize(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				plans = append(plans, p)
			}
		}
	}
	ottCat, err := ott.Generate(ott.Config{Seed: 1, RowsPerValue: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 5, 6} {
		qs, err := ott.Queries(ottCat, ott.QueryConfig{NumTables: n, SameConstant: 2, Count: 4, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		add(ottCat, qs)
	}
	tpchCat, err := tpch.Generate(tpch.Config{Seed: 1, Customers: 150, Z: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, tpl := range tpch.Templates() {
		q, err := sql.Parse(tpl.Gen(rng), tpchCat)
		if err != nil {
			t.Fatal(err)
		}
		add(tpchCat, []*sql.Query{q})
	}

	nodes := 0
	for _, p := range plans {
		var order []plan.Node
		plan.Walk(p.Root, func(n plan.Node) { order = append(order, n) })
		for _, reverse := range []bool{false, true} {
			memo := sigMemo{}
			for i := range order {
				n := order[i]
				if reverse {
					n = order[len(order)-1-i]
				}
				if got, want := memo.of(n), subtreeSig(n); got != want {
					t.Fatalf("plan %s: node %T: memoized signature\n %q\nreference\n %q", p.Fingerprint(), n, got, want)
				}
				nodes++
			}
		}
	}
	if nodes < 400 {
		t.Fatalf("only %d nodes checked", nodes)
	}
}
