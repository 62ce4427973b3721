package midquery

import (
	"context"
	"testing"

	"reopt/internal/core"
	"reopt/internal/executor"
	"reopt/internal/optimizer"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpch"
)

func TestRuntimeReoptOnOTT(t *testing.T) {
	cat, err := ott.Generate(ott.Config{Seed: 5, RowsPerValue: 25})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ott.Queries(cat, ott.QueryConfig{NumTables: 5, SameConstant: 4, Count: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	mq := New(opt, cat)
	for i, q := range qs {
		// Ground truth from plain execution.
		p, err := opt.Optimize(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := executor.Run(p, cat, executor.Options{CountOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := mq.RunCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res.Count != truth.Count {
			t.Errorf("query %d: midquery %d rows vs plain %d", i, res.Count, truth.Count)
		}
		if res.Materializations != len(q.Tables)-1 {
			t.Errorf("query %d: %d materializations, want %d",
				i, res.Materializations, len(q.Tables)-1)
		}
		if res.Gamma.Len() == 0 {
			t.Errorf("query %d: no true cardinalities observed", i)
		}
	}
}

func TestRuntimeReoptOnTPCH(t *testing.T) {
	cat, err := tpch.Generate(tpch.Config{Customers: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	mq := New(opt, cat)
	for _, id := range []int{3, 5, 10, 12} {
		qs, err := tpch.Instances(cat, id, 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		q := qs[0]
		p, err := opt.Optimize(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := executor.Run(p, cat, executor.Options{CountOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := mq.RunCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("Q%d: %v", id, err)
		}
		if res.Count != truth.Count {
			t.Errorf("Q%d: midquery %d rows vs plain %d", id, res.Count, truth.Count)
		}
	}
}

func TestSingleTableQuery(t *testing.T) {
	cat, err := ott.Generate(ott.Config{Seed: 5, RowsPerValue: 10, NumTables: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	mq := New(opt, cat)
	qs, err := ott.Queries(cat, ott.QueryConfig{NumTables: 2, SameConstant: 2, Count: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mq.RunCtx(context.Background(), qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Materializations != 1 {
		t.Errorf("2-table query should materialize once, got %d", res.Materializations)
	}
}

// TestMidQueryStopsEarlyOnEmptyIntermediate verifies the key advantage
// runtime re-optimization shares with the sampling approach: once an
// intermediate result is empty, the remaining joins are free.
func TestMidQueryStopsEarlyOnEmptyIntermediate(t *testing.T) {
	cat, err := ott.Generate(ott.Config{Seed: 7, RowsPerValue: 25})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ott.Queries(cat, ott.QueryConfig{NumTables: 5, SameConstant: 4, Count: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	mq := New(opt, cat)
	for i, q := range qs {
		res, err := mq.RunCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res.Count != 0 {
			t.Errorf("query %d: expected empty result", i)
		}
		// Once truth reveals an empty join, later materializations are
		// all empty: total materialized rows is bounded by the largest
		// single intermediate, not their product.
		if res.MaterializedRows > 100000 {
			t.Errorf("query %d: materialized %d rows; runtime re-opt failed to cut off",
				i, res.MaterializedRows)
		}
	}
}

// TestCompileTimeVsRuntimeComparison runs both re-optimizers on the same
// queries and checks they agree on results; the comparison of their
// overheads is the paper's §6 discussion made concrete.
func TestCompileTimeVsRuntimeComparison(t *testing.T) {
	cat, err := ott.Generate(ott.Config{Seed: 8, RowsPerValue: 25})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ott.Queries(cat, ott.QueryConfig{NumTables: 5, SameConstant: 4, Count: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	compile := core.New(opt, cat)
	runtime := New(opt, cat)
	for i, q := range qs {
		cres, err := compile.Reoptimize(q)
		if err != nil {
			t.Fatal(err)
		}
		crun, err := executor.Run(cres.Final, cat, executor.Options{CountOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		rres, err := runtime.RunCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if crun.Count != rres.Count {
			t.Errorf("query %d: compile-time %d vs runtime %d rows", i, crun.Count, rres.Count)
		}
	}
}
