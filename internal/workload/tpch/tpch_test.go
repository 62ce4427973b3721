package tpch

import (
	"math/rand"
	"testing"

	"reopt/internal/core"
	"reopt/internal/executor"
	"reopt/internal/optimizer"
	"reopt/internal/sql"
)

func TestGenerateSizes(t *testing.T) {
	cfg := Config{Customers: 600, Seed: 1}
	cat, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizes := cfg.Sizes()
	for name, want := range sizes {
		tab, err := cat.Table(name)
		if err != nil {
			t.Fatalf("table %s: %v", name, err)
		}
		if tab.NumRows() != want {
			t.Errorf("%s: %d rows, want %d", name, tab.NumRows(), want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Customers: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Customers: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := a.Table("orders")
	tb, _ := b.Table("orders")
	if ta.NumRows() != tb.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", ta.NumRows(), tb.NumRows())
	}
	for i := 0; i < ta.NumRows(); i += 97 {
		ra, rb := ta.Row(i), tb.Row(i)
		for j := range ra {
			if ra[j].Compare(rb[j]) != 0 {
				t.Fatalf("row %d col %d differs: %s vs %s", i, j, ra[j], rb[j])
			}
		}
	}
}

func TestSkewChangesDistribution(t *testing.T) {
	uni, err := Generate(Config{Customers: 400, Z: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	skew, err := Generate(Config{Customers: 400, Z: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Under skew the most common o_custkey should be much more frequent.
	su := uni.ColumnStats("orders", "o_custkey")
	ss := skew.ColumnStats("orders", "o_custkey")
	if su == nil || ss == nil {
		t.Fatal("missing stats")
	}
	if len(ss.MCV) == 0 {
		t.Fatal("skewed column has no MCVs")
	}
	var topU, topS float64
	if len(su.MCV) > 0 {
		topU = su.MCV[0].Freq
	}
	topS = ss.MCV[0].Freq
	if topS <= topU {
		t.Errorf("skewed top frequency %.5f not greater than uniform %.5f", topS, topU)
	}
}

// TestAllTemplatesEndToEnd optimizes, executes, and re-optimizes one
// instance of every TPC-H template on both uniform and skewed databases,
// checking result-count equivalence between the original and
// re-optimized plans.
func TestAllTemplatesEndToEnd(t *testing.T) {
	for _, z := range []float64{0, 1} {
		cat, err := Generate(Config{Customers: 600, Z: z, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		opt := optimizer.New(cat, optimizer.DefaultConfig())
		reopt := core.New(opt, cat)
		for _, id := range QueryIDs() {
			qs, err := Instances(cat, id, 1, 7)
			if err != nil {
				t.Fatalf("z=%v Q%d: %v", z, id, err)
			}
			q := qs[0]
			orig, err := opt.Optimize(q, nil)
			if err != nil {
				t.Fatalf("z=%v Q%d optimize: %v", z, id, err)
			}
			origRun, err := executor.Run(orig, cat, executor.Options{CountOnly: true})
			if err != nil {
				t.Fatalf("z=%v Q%d execute: %v", z, id, err)
			}
			res, err := reopt.Reoptimize(q)
			if err != nil {
				t.Fatalf("z=%v Q%d reoptimize: %v", z, id, err)
			}
			reRun, err := executor.Run(res.Final, cat, executor.Options{CountOnly: true})
			if err != nil {
				t.Fatalf("z=%v Q%d execute reoptimized: %v", z, id, err)
			}
			if origRun.Count != reRun.Count {
				t.Errorf("z=%v Q%d: original count %d != reoptimized %d",
					z, id, origRun.Count, reRun.Count)
			}
			if !res.Converged {
				t.Errorf("z=%v Q%d: did not converge", z, id)
			}
			if res.NumPlans > 10 {
				t.Errorf("z=%v Q%d: %d plans (paper: <10 for all queries)", z, id, res.NumPlans)
			}
		}
	}
}

// TestParseAllocations bounds what parsing the TPC-H templates allocates:
// resolving an unqualified column tries every FROM table, and a table
// lacking the column must cost a failed lookup, not a formatted error.
// Resolution that built one error per miss averaged ~123 allocations a
// parse over the 21 templates; it now averages ~35.
func TestParseAllocations(t *testing.T) {
	cat, err := Generate(Config{Customers: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var texts []string
	for _, tpl := range Templates() {
		texts = append(texts, tpl.Gen(rng))
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, text := range texts {
			if _, err := sql.Parse(text, cat); err != nil {
				t.Fatal(err)
			}
		}
	})
	perParse := allocs / float64(len(texts))
	t.Logf("%.1f allocations a parse", perParse)
	if perParse > 60 {
		t.Fatalf("%.1f allocations a parse, want at most 60", perParse)
	}
}
