package stats_test

import (
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/stats"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpch"
)

// TestBenchCatalogsMatchReference runs the ANALYZE oracle over every
// column of the four bench/ workloads' catalogs at their smoke sizes:
// ott_small, ott_large, template_zipf and tpch_batch.
func TestBenchCatalogsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("generates four catalogs")
	}
	gens := []struct {
		name string
		gen  func() (*catalog.Catalog, error)
	}{
		{"ott_small", func() (*catalog.Catalog, error) {
			return ott.Generate(ott.Config{Seed: 1, NumTables: 6, RowsPerValue: 10})
		}},
		{"ott_large", func() (*catalog.Catalog, error) {
			return ott.Generate(ott.Config{Seed: 1, NumTables: 5, RowsPerValue: 3,
				Domains: []int{2000, 1800, 1600, 1400, 1200}, SampleRatio: 1})
		}},
		{"template_zipf", func() (*catalog.Catalog, error) {
			return ott.Generate(ott.Config{Seed: 1, NumTables: 4, RowsPerValue: 40,
				Domains: []int{400, 360, 320, 28}, SampleRatio: 1})
		}},
		{"tpch_batch", func() (*catalog.Catalog, error) {
			return tpch.Generate(tpch.Config{Seed: 1, Customers: 150, Z: 1})
		}},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			cat, err := g.gen()
			if err != nil {
				t.Fatal(err)
			}
			for _, tn := range cat.TableNames() {
				tab, err := cat.Table(tn)
				if err != nil {
					t.Fatal(err)
				}
				stats.CheckAgainstReference(t, tab, stats.AnalyzeOptions{})
			}
		})
	}
}
