package catalog_test

import (
	"sync"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/stats"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpch"
)

// columnStats lists every analyzed column of a catalog, in a fixed order.
func columnStats(cat *catalog.Catalog) []*stats.ColumnStats {
	var out []*stats.ColumnStats
	for _, name := range cat.TableNames() {
		tab, _ := cat.Table(name)
		for _, col := range tab.Schema().Columns {
			if cs := cat.ColumnStats(name, col.Name); cs != nil {
				out = append(out, cs)
			}
		}
	}
	return out
}

// TestJoinSelectivityMemoized: the catalog's memoized join selectivity is
// the direct stats.JoinSelectivity for every ordered pair of analyzed
// columns — on the miss and on the hit — on an OTT and a skewed TPC-H
// catalog, nil statistics included, and re-publishing statistics is
// never answered from the old pair.
func TestJoinSelectivityMemoized(t *testing.T) {
	ottCat, err := ott.Generate(ott.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tpchCat, err := tpch.Generate(tpch.Config{Customers: 300, Z: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for name, cat := range map[string]*catalog.Catalog{"ott": ottCat, "tpch": tpchCat} {
		cols := append(columnStats(cat), nil)
		if len(cols) < 3 {
			t.Fatalf("%s: only %d analyzed columns", name, len(cols)-1)
		}
		for pass := 0; pass < 2; pass++ {
			for _, l := range cols {
				for _, r := range cols {
					if got, want := cat.JoinSelectivity(l, r), stats.JoinSelectivity(l, r); got != want {
						t.Fatalf("%s pass %d: memoized %v, direct %v", name, pass, got, want)
					}
				}
			}
		}
	}

	// Re-analyzing publishes new statistics objects: the pair of new
	// pointers is computed afresh, not served from the old pair's entry.
	old := ottCat.ColumnStats(ott.TableName(1), "a")
	if old == nil {
		t.Fatal("ott r1.a has no statistics")
	}
	if err := ottCat.Analyze(ott.TableName(1), stats.AnalyzeOptions{Target: 4}); err != nil {
		t.Fatal(err)
	}
	fresh := ottCat.ColumnStats(ott.TableName(1), "a")
	if fresh == old {
		t.Fatal("re-Analyze must publish a new statistics object")
	}
	other := ottCat.ColumnStats(ott.TableName(2), "a")
	if got, want := ottCat.JoinSelectivity(fresh, other), stats.JoinSelectivity(fresh, other); got != want {
		t.Fatalf("after re-Analyze: memoized %v, direct %v", got, want)
	}
}

// TestJoinSelectivityFirstLookupRace: goroutines racing the first lookup
// of the same pairs all get the direct value (run under -race).
func TestJoinSelectivityFirstLookupRace(t *testing.T) {
	cat, err := ott.Generate(ott.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cols := columnStats(cat)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, l := range cols {
				for _, r := range cols {
					if got, want := cat.JoinSelectivity(l, r), stats.JoinSelectivity(l, r); got != want {
						t.Errorf("memoized %v, direct %v", got, want)
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
