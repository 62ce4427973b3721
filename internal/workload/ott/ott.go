// Package ott implements the paper's Optimizer Torture Test (§4): a
// database of relations R_k(A_k, B_k) generated by Algorithm 2 — A_k
// uniform, B_k identical to A_k, so selections on A correlate perfectly
// with joins on B — and the query generator of §5.3: chains
//
//	σ(A_1=c_1 ∧ … ∧ A_n=c_n)(R'_1 ⋈ B_1=B_2 R'_2 ⋈ … R'_n)
//
// where m of the constants are one value and n−m another, making the
// whole query empty while its maximal same-constant sub-query has
// M^m rows (M rows per distinct value).
//
// Substitution note (see DESIGN.md): the paper sets M = 100 rows per
// value over a 1 GB TPC-H base; we default to M = 60 so the deliberately
// bad plans run in milliseconds-to-seconds instead of hours, preserving
// the orders-of-magnitude gap between original and re-optimized plans.
package ott

import (
	"fmt"
	"math/rand"

	"reopt/internal/catalog"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/stats"
	"reopt/internal/storage"
	"reopt/internal/workload/datagen"
)

// Config sizes the OTT database.
type Config struct {
	// NumTables is the number of relations (the paper extends the 6
	// largest TPC-H tables). 0 means 6.
	NumTables int
	// RowsPerValue is M, the number of rows per distinct value (the
	// paper's domain rule "each distinct value appears roughly 100
	// times"). 0 means 60.
	RowsPerValue int
	// Domains optionally sets each table's distinct-value count; when
	// shorter than NumTables the defaults cycle. Defaults emulate the
	// heterogeneous sizes of the TPC-H tables the paper extends.
	Domains []int
	// Seed drives all randomness (Algorithm 2 picks an independent seed
	// per table; we derive them from this one).
	Seed int64
	// SampleRatio for catalog samples; 0 means catalog.DefaultSampleRatio.
	SampleRatio float64
}

func (c Config) withDefaults() Config {
	if c.NumTables <= 0 {
		c.NumTables = 6
	}
	if c.RowsPerValue <= 0 {
		c.RowsPerValue = 60
	}
	if len(c.Domains) == 0 {
		c.Domains = []int{120, 100, 80, 60, 50, 40}
	}
	if c.SampleRatio == 0 {
		c.SampleRatio = catalog.DefaultSampleRatio
	}
	return c
}

// TableName returns the name of the k-th OTT relation (1-based).
func TableName(k int) string { return fmt.Sprintf("r%d", k) }

// Generate builds the OTT database per Algorithm 2: for each table,
// generate A_k from the uniform Pr(A_k) with an independent seed and set
// B_k = A_k. Columns A and B are indexed, statistics are collected, and
// samples are drawn.
func Generate(cfg Config) (*catalog.Catalog, error) {
	cfg = cfg.withDefaults()
	cat := catalog.New()
	for k := 1; k <= cfg.NumTables; k++ {
		name := TableName(k)
		domain := cfg.Domains[(k-1)%len(cfg.Domains)]
		t := storage.NewTable(name, rel.NewSchema(
			rel.Column{Name: "a", Kind: rel.KindInt},
			rel.Column{Name: "b", Kind: rel.KindInt},
		))
		// Algorithm 2 line 2: independent seed per table.
		rng := rand.New(rand.NewSource(datagen.Seed(cfg.Seed, name)))
		n := domain * cfg.RowsPerValue
		t.Grow(n)
		for i := 0; i < n; i++ {
			// Line 3: A_k ~ Pr(A_k), uniform (§4.2.2).
			a := int64(rng.Intn(domain))
			// Line 4: B_k = A_k.
			t.MustAppend(rel.Row{rel.Int(a), rel.Int(a)})
		}
		for _, col := range []string{"a", "b"} {
			if _, err := t.CreateIndex(col); err != nil {
				return nil, err
			}
		}
		cat.MustAddTable(t)
	}
	if err := cat.AnalyzeAll(stats.AnalyzeOptions{}); err != nil {
		return nil, err
	}
	cat.SetSampleRatio(cfg.SampleRatio)
	cat.BuildSamples(datagen.Seed(cfg.Seed, "samples"))
	return cat, nil
}

// QueryConfig describes one batch of OTT queries.
type QueryConfig struct {
	// NumTables is n, the relations per query (n−1 joins).
	NumTables int
	// SameConstant is m: how many selections use the majority constant;
	// the remaining n−m use the other one. The paper uses m = 4.
	SameConstant int
	// Count is how many query instances to generate.
	Count int
	// Seed drives instance randomness.
	Seed int64
}

// Queries generates OTT query instances against the catalog. Each
// instance picks n distinct tables, a random chain order, which
// positions carry the majority constant, and whether the majority
// constant is 0 or 1 — mirroring §5.3's "m of the selections be A = 0
// (A = 1), and the remaining n − m selections be A = 1 (A = 0)".
func Queries(cat *catalog.Catalog, cfg QueryConfig) ([]*sql.Query, error) {
	if cfg.NumTables < 2 {
		return nil, fmt.Errorf("ott: queries need at least 2 tables")
	}
	if cfg.SameConstant > cfg.NumTables {
		return nil, fmt.Errorf("ott: m=%d exceeds n=%d", cfg.SameConstant, cfg.NumTables)
	}
	all := cat.TableNames()
	if cfg.NumTables > len(all) {
		return nil, fmt.Errorf("ott: query needs %d tables, catalog has %d", cfg.NumTables, len(all))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]*sql.Query, 0, cfg.Count)
	for i := 0; i < cfg.Count; i++ {
		perm := rng.Perm(len(all))[:cfg.NumTables]
		majority, minority := int64(0), int64(1)
		if rng.Intn(2) == 1 {
			majority, minority = 1, 0
		}
		minorityAt := map[int]bool{}
		for len(minorityAt) < cfg.NumTables-cfg.SameConstant {
			minorityAt[rng.Intn(cfg.NumTables)] = true
		}
		text := "SELECT COUNT(*) FROM "
		for j, ti := range perm {
			if j > 0 {
				text += ", "
			}
			text += fmt.Sprintf("%s AS t%d", all[ti], j+1)
		}
		text += " WHERE "
		for j := 0; j < cfg.NumTables; j++ {
			c := majority
			if minorityAt[j] {
				c = minority
			}
			if j > 0 {
				text += " AND "
			}
			text += fmt.Sprintf("t%d.a = %d", j+1, c)
		}
		for j := 1; j < cfg.NumTables; j++ {
			text += fmt.Sprintf(" AND t%d.b = t%d.b", j, j+1)
		}
		q, err := sql.Parse(text, cat)
		if err != nil {
			return nil, fmt.Errorf("ott: instance %d: %w", i, err)
		}
		out = append(out, q)
	}
	return out, nil
}
