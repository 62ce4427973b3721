// Package tpcds generates a scaled-down TPC-DS-style star-schema
// database and the SPJ skeletons of the 29 queries the paper evaluates
// in Appendix A.2, plus the tweaked Q50' variant.
//
// Substitution note (see DESIGN.md): the paper uses the real 10 GB
// TPC-DS. We generate the subset of the schema those 29 queries touch —
// two fact tables (store_sales, store_returns) plus catalog_sales and
// the dimension tables — at in-memory scale. As in the paper, most of
// these queries are short-running star joins with accurate estimates,
// so re-optimization changes little; store_returns carries a planted
// correlation (return reason depends on the returning store) that the
// tweaked Q50' exposes.
package tpcds

import (
	"fmt"
	"math/rand"

	"reopt/internal/catalog"
	"reopt/internal/rel"
	"reopt/internal/stats"
	"reopt/internal/storage"
	"reopt/internal/workload/datagen"
)

// Config sizes the database.
type Config struct {
	// StoreSales is the store_sales fact row count; other tables scale
	// from it. 0 means 60000.
	StoreSales int
	// Seed drives all randomness.
	Seed int64
	// SampleRatio for catalog samples; 0 means catalog.DefaultSampleRatio.
	SampleRatio float64
}

func (c Config) withDefaults() Config {
	if c.StoreSales <= 0 {
		c.StoreSales = 60000
	}
	if c.SampleRatio == 0 {
		c.SampleRatio = catalog.DefaultSampleRatio
	}
	return c
}

const (
	numDates   = 1826 // five years of days
	numReasons = 35
)

// Generate builds the database with indexes, statistics, and samples.
func Generate(cfg Config) (*catalog.Catalog, error) {
	cfg = cfg.withDefaults()
	cat := catalog.New()
	nSales := cfg.StoreSales
	nItems := maxI(nSales/30, 200)
	nStores := maxI(nSales/5000, 6)
	nCustomers := maxI(nSales/12, 500)
	nHouseholds := 720

	// date_dim
	dateDim := storage.NewTable("date_dim", rel.NewSchema(
		rel.Column{Name: "d_date_sk", Kind: rel.KindInt},
		rel.Column{Name: "d_year", Kind: rel.KindInt},
		rel.Column{Name: "d_moy", Kind: rel.KindInt},
		rel.Column{Name: "d_dow", Kind: rel.KindInt},
	))
	dateDim.Grow(numDates)
	for i := 0; i < numDates; i++ {
		dateDim.MustAppend(rel.Row{
			rel.Int(int64(i)),
			rel.Int(int64(1998 + i/365)),
			rel.Int(int64((i/30)%12 + 1)),
			rel.Int(int64(i % 7)),
		})
	}

	// item
	item := storage.NewTable("item", rel.NewSchema(
		rel.Column{Name: "i_item_sk", Kind: rel.KindInt},
		rel.Column{Name: "i_category", Kind: rel.KindInt},
		rel.Column{Name: "i_brand", Kind: rel.KindInt},
		rel.Column{Name: "i_manager", Kind: rel.KindInt},
	))
	{
		rng := rand.New(rand.NewSource(datagen.Seed(cfg.Seed, "item")))
		item.Grow(nItems)
		for i := 0; i < nItems; i++ {
			item.MustAppend(rel.Row{
				rel.Int(int64(i)),
				rel.Int(int64(rng.Intn(10))),
				rel.Int(int64(rng.Intn(120))),
				rel.Int(int64(rng.Intn(40))),
			})
		}
	}

	// store
	store := storage.NewTable("store", rel.NewSchema(
		rel.Column{Name: "s_store_sk", Kind: rel.KindInt},
		rel.Column{Name: "s_state", Kind: rel.KindInt},
		rel.Column{Name: "s_county", Kind: rel.KindInt},
	))
	{
		rng := rand.New(rand.NewSource(datagen.Seed(cfg.Seed, "store")))
		store.Grow(nStores)
		for i := 0; i < nStores; i++ {
			store.MustAppend(rel.Row{
				rel.Int(int64(i)),
				rel.Int(int64(rng.Intn(10))),
				rel.Int(int64(rng.Intn(25))),
			})
		}
	}

	// customer + household_demographics
	customer := storage.NewTable("customer", rel.NewSchema(
		rel.Column{Name: "c_customer_sk", Kind: rel.KindInt},
		rel.Column{Name: "c_hdemo_sk", Kind: rel.KindInt},
		rel.Column{Name: "c_birth_year", Kind: rel.KindInt},
	))
	{
		rng := rand.New(rand.NewSource(datagen.Seed(cfg.Seed, "customer")))
		customer.Grow(nCustomers)
		for i := 0; i < nCustomers; i++ {
			customer.MustAppend(rel.Row{
				rel.Int(int64(i)),
				rel.Int(int64(rng.Intn(nHouseholds))),
				rel.Int(int64(1930 + rng.Intn(70))),
			})
		}
	}
	hdemo := storage.NewTable("household_demographics", rel.NewSchema(
		rel.Column{Name: "hd_demo_sk", Kind: rel.KindInt},
		rel.Column{Name: "hd_dep_count", Kind: rel.KindInt},
		rel.Column{Name: "hd_buy_potential", Kind: rel.KindInt},
	))
	{
		rng := rand.New(rand.NewSource(datagen.Seed(cfg.Seed, "hdemo")))
		hdemo.Grow(nHouseholds)
		for i := 0; i < nHouseholds; i++ {
			hdemo.MustAppend(rel.Row{
				rel.Int(int64(i)),
				rel.Int(int64(rng.Intn(10))),
				rel.Int(int64(rng.Intn(6))),
			})
		}
	}

	// store_sales fact
	storeSales := storage.NewTable("store_sales", rel.NewSchema(
		rel.Column{Name: "ss_sold_date_sk", Kind: rel.KindInt},
		rel.Column{Name: "ss_item_sk", Kind: rel.KindInt},
		rel.Column{Name: "ss_store_sk", Kind: rel.KindInt},
		rel.Column{Name: "ss_customer_sk", Kind: rel.KindInt},
		rel.Column{Name: "ss_quantity", Kind: rel.KindInt},
		rel.Column{Name: "ss_ticket_number", Kind: rel.KindInt},
	))
	type saleRec struct {
		date, item, store, cust, ticket int64
	}
	sales := make([]saleRec, 0, nSales)
	{
		rng := rand.New(rand.NewSource(datagen.Seed(cfg.Seed, "store_sales")))
		storeSales.Grow(nSales)
		for i := 0; i < nSales; i++ {
			rec := saleRec{
				date:   int64(rng.Intn(numDates)),
				item:   int64(rng.Intn(nItems)),
				store:  int64(rng.Intn(nStores)),
				cust:   int64(rng.Intn(nCustomers)),
				ticket: int64(i),
			}
			sales = append(sales, rec)
			storeSales.MustAppend(rel.Row{
				rel.Int(rec.date), rel.Int(rec.item), rel.Int(rec.store),
				rel.Int(rec.cust), rel.Int(int64(rng.Intn(100) + 1)), rel.Int(rec.ticket),
			})
		}
	}

	// store_returns: ~12% of sales return, 1-90 days later. The planted
	// correlation: the return reason is a deterministic function of the
	// store, so σ(sr_reason_sk = c) correlates perfectly with the store
	// join — invisible to per-column histograms, exactly the §4 pattern.
	storeReturns := storage.NewTable("store_returns", rel.NewSchema(
		rel.Column{Name: "sr_returned_date_sk", Kind: rel.KindInt},
		rel.Column{Name: "sr_item_sk", Kind: rel.KindInt},
		rel.Column{Name: "sr_ticket_number", Kind: rel.KindInt},
		rel.Column{Name: "sr_reason_sk", Kind: rel.KindInt},
		rel.Column{Name: "sr_store_sk", Kind: rel.KindInt},
	))
	{
		rng := rand.New(rand.NewSource(datagen.Seed(cfg.Seed, "store_returns")))
		for _, rec := range sales {
			if rng.Float64() > 0.12 {
				continue
			}
			d := rec.date + int64(rng.Intn(90)+1)
			if d >= numDates {
				d = numDates - 1
			}
			storeReturns.MustAppend(rel.Row{
				rel.Int(d), rel.Int(rec.item), rel.Int(rec.ticket),
				rel.Int(rec.store % numReasons), // correlated reason
				rel.Int(rec.store),
			})
		}
	}

	// catalog_sales fact
	catalogSales := storage.NewTable("catalog_sales", rel.NewSchema(
		rel.Column{Name: "cs_sold_date_sk", Kind: rel.KindInt},
		rel.Column{Name: "cs_item_sk", Kind: rel.KindInt},
		rel.Column{Name: "cs_customer_sk", Kind: rel.KindInt},
		rel.Column{Name: "cs_quantity", Kind: rel.KindInt},
	))
	{
		rng := rand.New(rand.NewSource(datagen.Seed(cfg.Seed, "catalog_sales")))
		catalogSales.Grow(nSales / 2)
		for i := 0; i < nSales/2; i++ {
			catalogSales.MustAppend(rel.Row{
				rel.Int(int64(rng.Intn(numDates))),
				rel.Int(int64(rng.Intn(nItems))),
				rel.Int(int64(rng.Intn(nCustomers))),
				rel.Int(int64(rng.Intn(100) + 1)),
			})
		}
	}

	for _, t := range []*storage.Table{dateDim, item, store, customer, hdemo, storeSales, storeReturns, catalogSales} {
		cat.MustAddTable(t)
	}
	indexCols := map[string][]string{
		"date_dim":               {"d_date_sk"},
		"item":                   {"i_item_sk"},
		"store":                  {"s_store_sk"},
		"customer":               {"c_customer_sk", "c_hdemo_sk"},
		"household_demographics": {"hd_demo_sk"},
		"store_sales":            {"ss_sold_date_sk", "ss_item_sk", "ss_customer_sk", "ss_ticket_number"},
		"store_returns":          {"sr_ticket_number", "sr_item_sk", "sr_returned_date_sk"},
		"catalog_sales":          {"cs_sold_date_sk", "cs_item_sk", "cs_customer_sk"},
	}
	for name, cols := range indexCols {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		for _, c := range cols {
			if _, err := t.CreateIndex(c); err != nil {
				return nil, fmt.Errorf("tpcds: %v", err)
			}
		}
	}
	if err := cat.AnalyzeAll(stats.AnalyzeOptions{}); err != nil {
		return nil, err
	}
	cat.SetSampleRatio(cfg.SampleRatio)
	cat.BuildSamples(datagen.Seed(cfg.Seed, "samples"))
	return cat, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
