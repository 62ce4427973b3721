package ott

import (
	"testing"

	"reopt/internal/executor"
	"reopt/internal/optimizer"
	"reopt/internal/sql"
)

func TestGenerateInvariants(t *testing.T) {
	cat, err := Generate(Config{Seed: 1, RowsPerValue: 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cat.TableNames()); got != 6 {
		t.Fatalf("tables: %d", got)
	}
	for k := 1; k <= 6; k++ {
		tab, err := cat.Table(TableName(k))
		if err != nil {
			t.Fatal(err)
		}
		// Algorithm 2 line 4: B = A on every row.
		for rid := range tab.NumRows() {
			row := tab.Row(rid)
			if row[0].AsInt() != row[1].AsInt() {
				t.Fatalf("%s: B != A", TableName(k))
			}
		}
		if tab.Index("a") == nil || tab.Index("b") == nil {
			t.Errorf("%s: missing index", TableName(k))
		}
		if cat.ColumnStats(TableName(k), "a") == nil {
			t.Errorf("%s: missing statistics", TableName(k))
		}
	}
	if !cat.HasSamples() {
		t.Error("samples missing")
	}
}

func TestTableSizes(t *testing.T) {
	cfg := Config{Seed: 1, RowsPerValue: 20, Domains: []int{30, 40}}
	cat, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := cat.Table("r1")
	t2, _ := cat.Table("r2")
	t3, _ := cat.Table("r3") // domains cycle
	if t1.NumRows() != 600 || t2.NumRows() != 800 || t3.NumRows() != 600 {
		t.Errorf("sizes: %d %d %d", t1.NumRows(), t2.NumRows(), t3.NumRows())
	}
}

func TestQueriesAreEmptyButSubqueriesAreNot(t *testing.T) {
	cat, err := Generate(Config{Seed: 2, RowsPerValue: 20})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := Queries(cat, QueryConfig{NumTables: 5, SameConstant: 4, Count: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	for i, q := range qs {
		if len(q.Tables) != 5 || len(q.Joins) != 4 || len(q.Selections) != 5 {
			t.Fatalf("query %d shape wrong: %s", i, q)
		}
		// The whole query must be empty (n−m ≥ 1 mismatched constant).
		p, err := opt.Optimize(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := executor.Run(p, cat, executor.Options{CountOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 0 {
			t.Errorf("query %d: %d rows, want 0", i, res.Count)
		}
		// Exactly one selection differs from the others (m=4 of 5).
		counts := map[int64]int{}
		for _, s := range q.Selections {
			counts[s.Value.AsInt()]++
		}
		if len(counts) != 2 {
			t.Errorf("query %d: selection constants %v", i, counts)
		}
		maj := 0
		for _, c := range counts {
			if c > maj {
				maj = c
			}
		}
		if maj != 4 {
			t.Errorf("query %d: majority count %d, want 4", i, maj)
		}
	}
}

// TestSameConstantSubqueryIsLarge checks §5.3's claim: the maximal
// same-constant sub-query has ~M^m rows across its join chain.
func TestSameConstantSubqueryIsLarge(t *testing.T) {
	m := 20
	cat, err := Generate(Config{Seed: 4, RowsPerValue: m, NumTables: 4, Domains: []int{50}})
	if err != nil {
		t.Fatal(err)
	}
	// Join three tables, all with a = 0.
	q, err := sql.Parse(`SELECT COUNT(*) FROM r1 AS t1, r2 AS t2, r3 AS t3
		WHERE t1.a = 0 AND t2.a = 0 AND t3.a = 0
		AND t1.b = t2.b AND t2.b = t3.b`, cat)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	p, err := opt.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := executor.Run(p, cat, executor.Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// Expected ~M^3; actual per-value counts are binomial around M.
	want := float64(m * m * m)
	if float64(res.Count) < want/4 || float64(res.Count) > want*4 {
		t.Errorf("same-constant 3-chain: %d rows, want ~%v", res.Count, want)
	}
}

// TestOptimizerUnderestimatesOTT verifies Lemma 4: the AVI estimate of a
// same-constant chain is too small by ~L^(K-1).
func TestOptimizerUnderestimatesOTT(t *testing.T) {
	cat, err := Generate(Config{Seed: 4, RowsPerValue: 20, NumTables: 3, Domains: []int{50}})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Parse(`SELECT COUNT(*) FROM r1 AS t1, r2 AS t2
		WHERE t1.a = 0 AND t2.a = 0 AND t1.b = t2.b`, cat)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	p, err := opt.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := executor.Run(p, cat, executor.Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// Actual ≈ M² = 400; estimate ≈ M²/L = 8 (L=50): underestimate by
	// roughly L.
	ratio := float64(res.Count) / p.EstRows()
	if ratio < 10 {
		t.Errorf("underestimation ratio %v, want >> 1 (Lemma 4)", ratio)
	}
}

func TestQueryConfigValidation(t *testing.T) {
	cat, err := Generate(Config{Seed: 1, RowsPerValue: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Queries(cat, QueryConfig{NumTables: 1, SameConstant: 1, Count: 1}); err == nil {
		t.Error("n<2 should error")
	}
	if _, err := Queries(cat, QueryConfig{NumTables: 3, SameConstant: 5, Count: 1}); err == nil {
		t.Error("m>n should error")
	}
	if _, err := Queries(cat, QueryConfig{NumTables: 99, SameConstant: 4, Count: 1}); err == nil {
		t.Error("n>tables should error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Seed: 9, RowsPerValue: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Seed: 9, RowsPerValue: 10})
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := a.Table("r3")
	tb, _ := b.Table("r3")
	for i := 0; i < ta.NumRows(); i += 31 {
		if ta.Row(i)[0].AsInt() != tb.Row(i)[0].AsInt() {
			t.Fatalf("row %d differs", i)
		}
	}
}
