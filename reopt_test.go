package reopt_test

import (
	"context"
	"testing"

	"reopt"
)

// TestPublicAPIEndToEnd exercises the exported surface: build a catalog
// by hand, parse, optimize, re-optimize, execute.
func TestPublicAPIEndToEnd(t *testing.T) {
	cat := reopt.NewCatalog()
	tab := reopt.NewTable("t", reopt.NewSchema(
		reopt.Column{Name: "a", Kind: reopt.KindInt},
		reopt.Column{Name: "b", Kind: reopt.KindInt},
	))
	for i := int64(0); i < 5000; i++ {
		tab.MustAppend(reopt.Row{reopt.Int(i % 40), reopt.Int(i % 40)})
	}
	u := reopt.NewTable("u", reopt.NewSchema(
		reopt.Column{Name: "a", Kind: reopt.KindInt},
		reopt.Column{Name: "b", Kind: reopt.KindInt},
	))
	for i := int64(0); i < 5000; i++ {
		u.MustAppend(reopt.Row{reopt.Int(i % 40), reopt.Int(i % 40)})
	}
	cat.MustAddTable(tab)
	cat.MustAddTable(u)
	if err := cat.AnalyzeAll(reopt.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	cat.BuildSamples(3)

	q, err := reopt.Parse(`SELECT COUNT(*) FROM t, u WHERE t.b = u.b AND t.a = 1 AND u.a = 2`, cat)
	if err != nil {
		t.Fatal(err)
	}
	opt := reopt.NewOptimizer(cat, reopt.DefaultOptimizerConfig())
	p, err := opt.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := s.Execute(ctx, p, reopt.ExecOptions{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Errorf("correlated query should be empty, got %d", res.Count)
	}

	r := reopt.NewReoptimizer(opt, cat)
	rres, err := r.Reoptimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !rres.Converged || rres.Final == nil {
		t.Error("re-optimization should converge")
	}
	ests, err := s.Validate(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests[0].Sets) == 0 {
		t.Error("sampling estimate empty")
	}
}

func TestPublicWorkloads(t *testing.T) {
	ottCat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 1, RowsPerValue: 10})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := reopt.OTTQueries(ottCat, reopt.OTTQueryConfig{
		NumTables: 3, SameConstant: 2, Count: 2, Seed: 1,
	})
	if err != nil || len(qs) != 2 {
		t.Fatalf("ott queries: %v", err)
	}
	tpchCat, err := reopt.GenerateTPCH(reopt.TPCHConfig{Customers: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpchCat.Table("lineitem"); err != nil {
		t.Fatal(err)
	}
	dsCat, err := reopt.GenerateTPCDS(reopt.TPCDSConfig{StoreSales: 1500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dsCat.Table("store_returns"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicProfiles(t *testing.T) {
	if reopt.SystemAProfile().Name != "systemA" || reopt.SystemBProfile().Name != "systemB" {
		t.Error("profile names wrong")
	}
}
