package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/sql"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpch"
)

// shapedWorkload is one of the four benchmark workloads (bench/
// workloads.go) at smoke size: its catalog and a few parsed queries.
type shapedWorkload struct {
	name    string
	cat     *catalog.Catalog
	queries []*sql.Query
}

// chainSQL renders an OTT-shaped chain over the given tables: one local
// predicate per table, adjacent tables joined on b.
func chainSQL(tables []int, pred func(pos int) string) string {
	var sb strings.Builder
	sb.WriteString("SELECT COUNT(*) FROM ")
	for j, t := range tables {
		if j > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "r%d AS t%d", t, j+1)
	}
	sb.WriteString(" WHERE ")
	for j := range tables {
		if j > 0 {
			sb.WriteString(" AND ")
		}
		fmt.Fprintf(&sb, "t%d.a %s", j+1, pred(j))
	}
	for j := 1; j < len(tables); j++ {
		fmt.Fprintf(&sb, " AND t%d.b = t%d.b", j, j+1)
	}
	return sb.String()
}

func permTables(rng *rand.Rand, total, n int) []int {
	perm := rng.Perm(total)[:n]
	for i := range perm {
		perm[i]++
	}
	return perm
}

// benchShapedWorkloads rebuilds the benchmark's query shapes — OTT
// chains of 5 and 6 tables, ott_large range chains, the three Zipf
// range templates, all 21 TPC-H templates — over small databases.
func benchShapedWorkloads(t testing.TB) []shapedWorkload {
	t.Helper()
	mustOTT := func(cfg ott.Config) *catalog.Catalog {
		cat, err := ott.Generate(cfg)
		if err != nil {
			t.Fatalf("generate OTT: %v", err)
		}
		return cat
	}
	parseAll := func(cat *catalog.Catalog, srcs []string) []*sql.Query {
		qs := make([]*sql.Query, len(srcs))
		for i, src := range srcs {
			q, err := sql.Parse(src, cat)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			qs[i] = q
		}
		return qs
	}
	rng := rand.New(rand.NewSource(16))

	var small []string
	for i := 0; i < 12; i++ {
		n := 5 + i%2
		tables := permTables(rng, 6, n)
		c1 := rng.Intn(40)
		c2 := (c1 + 1 + rng.Intn(39)) % 40
		minority := map[int]bool{}
		for len(minority) < n-4 {
			minority[rng.Intn(n)] = true
		}
		small = append(small, chainSQL(tables, func(pos int) string {
			if minority[pos] {
				return fmt.Sprintf("= %d", c2)
			}
			return fmt.Sprintf("= %d", c1)
		}))
	}

	var large []string
	for i := 0; i < 4; i++ {
		w := 10 + rng.Intn(21)
		lo := rng.Intn(600 - w)
		other := 600 + rng.Intn(600-w)
		odd := rng.Intn(5)
		large = append(large, chainSQL(permTables(rng, 5, 5), func(pos int) string {
			if pos == odd {
				return fmt.Sprintf("BETWEEN %d AND %d", other, other+w)
			}
			return fmt.Sprintf("BETWEEN %d AND %d", lo, lo+w)
		}))
	}

	var zipf []string
	for _, k := range []int{2, 9, 40} {
		zipf = append(zipf,
			fmt.Sprintf("SELECT COUNT(*) FROM r1, r2, r3 WHERE r1.a BETWEEN 1 AND %d AND r1.b BETWEEN 1 AND %d AND r2.a = 350 AND r3.a = 310 AND r1.b = r2.b AND r2.b = r3.b", k, k),
			fmt.Sprintf("SELECT COUNT(*) FROM r1, r2, r3 WHERE r2.a BETWEEN 1 AND %d AND r2.b BETWEEN 1 AND %d AND r1.a = 390 AND r3.a = 310 AND r1.b = r2.b AND r2.b = r3.b", k, k),
			fmt.Sprintf("SELECT COUNT(*) FROM r1, r3, r4 WHERE r3.a BETWEEN 1 AND %d AND r3.b BETWEEN 1 AND %d AND r1.a = 390 AND r4.a = 27 AND r1.b = r3.b AND r3.b = r4.b", k, k))
	}

	smallCat := mustOTT(ott.Config{Seed: 1, NumTables: 6, RowsPerValue: 10})
	largeCat := mustOTT(ott.Config{Seed: 1, NumTables: 5, RowsPerValue: 3,
		Domains: []int{2000, 1800, 1600, 1400, 1200}, SampleRatio: 1.0})
	zipfCat := mustOTT(ott.Config{Seed: 1, NumTables: 4, RowsPerValue: 40,
		Domains: []int{400, 360, 320, 28}, SampleRatio: 1.0})
	tpchCat, err := tpch.Generate(tpch.Config{Seed: 1, Customers: 150, Z: 1})
	if err != nil {
		t.Fatalf("generate TPC-H: %v", err)
	}
	var tpchSQL []string
	for _, tpl := range tpch.Templates() {
		tpchSQL = append(tpchSQL, tpl.Gen(rng))
	}
	return []shapedWorkload{
		{"ott_small", smallCat, parseAll(smallCat, small)},
		{"ott_large", largeCat, parseAll(largeCat, large)},
		{"template_zipf", zipfCat, parseAll(zipfCat, zipf)},
		{"tpch_batch", tpchCat, parseAll(tpchCat, tpchSQL)},
	}
}
