package tpcds

import (
	"testing"

	"reopt/internal/core"
	"reopt/internal/executor"
	"reopt/internal/optimizer"
)

func TestAllTemplatesEndToEnd(t *testing.T) {
	cat, err := Generate(Config{StoreSales: 20000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	reopt := core.New(opt, cat)
	for _, id := range QueryIDs() {
		qs, err := Instances(cat, id, 1, 3)
		if err != nil {
			t.Fatalf("Q%s: %v", id, err)
		}
		q := qs[0]
		orig, err := opt.Optimize(q, nil)
		if err != nil {
			t.Fatalf("Q%s optimize: %v", id, err)
		}
		origRun, err := executor.Run(orig, cat, executor.Options{CountOnly: true})
		if err != nil {
			t.Fatalf("Q%s execute: %v", id, err)
		}
		res, err := reopt.Reoptimize(q)
		if err != nil {
			t.Fatalf("Q%s reoptimize: %v", id, err)
		}
		reRun, err := executor.Run(res.Final, cat, executor.Options{CountOnly: true})
		if err != nil {
			t.Fatalf("Q%s execute reoptimized: %v", id, err)
		}
		if origRun.Count != reRun.Count {
			t.Errorf("Q%s: original count %d != reoptimized %d", id, origRun.Count, reRun.Count)
		}
		if !res.Converged {
			t.Errorf("Q%s: did not converge", id)
		}
	}
}

// TestPlantedCorrelationExists verifies the Q50' setup: sr_reason_sk is
// a deterministic function of sr_store_sk, so the joint selectivity of
// (reason = c) after joining a specific store differs wildly from the
// independence estimate.
func TestPlantedCorrelationExists(t *testing.T) {
	cat, err := Generate(Config{StoreSales: 20000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := cat.Table("store_returns")
	if err != nil {
		t.Fatal(err)
	}
	reasonPos := sr.Schema().MustIndexOf("store_returns", "sr_reason_sk")
	storePos := sr.Schema().MustIndexOf("store_returns", "sr_store_sk")
	for rid := range sr.NumRows() {
		row := sr.Row(rid)
		if row[reasonPos].AsInt() != row[storePos].AsInt()%numReasons {
			t.Fatal("correlation invariant violated")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{StoreSales: 5000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{StoreSales: 5000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := a.Table("store_returns")
	tb, _ := b.Table("store_returns")
	if ta.NumRows() != tb.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", ta.NumRows(), tb.NumRows())
	}
}

func TestUnknownTemplate(t *testing.T) {
	cat, err := Generate(Config{StoreSales: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Instances(cat, "nope", 1, 1); err == nil {
		t.Error("expected error for unknown template")
	}
}
