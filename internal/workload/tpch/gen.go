// Package tpch generates a scaled-down TPC-H-style database and the SPJ
// skeletons of the benchmark's queries, with a Zipf skew parameter z
// matching the skewed TPC-H generator the paper uses (§5.1.1): z = 0 is
// the uniform database, z = 1 the skewed one.
//
// Substitution note (see DESIGN.md): the paper runs the real 10 GB
// TPC-H; this generator produces the same 8-table schema and join graph
// at an in-memory scale, and the query templates keep each TPC-H query's
// join structure and local-predicate columns while dropping aggregation,
// which is irrelevant to join-order choice.
package tpch

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
	// Customers is the customer row count; the other tables scale from
	// it with TPC-H's ratios (orders 10x, lineitem ~40x, part 2/3x,
	// partsupp 4x part, supplier 1/15x). 0 means 3000.
	Customers int
	// Z is the Zipf skew exponent applied to foreign keys, dates, and
	// categorical columns; 0 is uniform.
	Z float64
	// Seed drives all randomness.
	Seed int64
	// SampleRatio for catalog samples; 0 means catalog.DefaultSampleRatio.
	SampleRatio float64
}

func (c Config) withDefaults() Config {
	if c.Customers <= 0 {
		c.Customers = 3000
	}
	if c.SampleRatio == 0 {
		c.SampleRatio = catalog.DefaultSampleRatio
	}
	return c
}

// Sizes reports the row counts the config implies.
func (c Config) Sizes() map[string]int {
	c = c.withDefaults()
	cust := c.Customers
	part := cust * 2 / 3 * 2 // 4/3 x customers, matching TPC-H's 200k:150k
	return map[string]int{
		"region":   5,
		"nation":   25,
		"supplier": maxI(cust/15, 20),
		"customer": cust,
		"part":     part,
		"partsupp": part * 4,
		"orders":   cust * 10,
		"lineitem": cust * 40,
	}
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

var (
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	statuses   = []string{"F", "O", "P"}
	returnflag = []string{"A", "N", "R"}
	shipmodes  = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	brands     = []string{"Brand#11", "Brand#12", "Brand#13", "Brand#21", "Brand#22",
		"Brand#23", "Brand#31", "Brand#32", "Brand#33", "Brand#41"}
	types = []string{"ECONOMY ANODIZED STEEL", "ECONOMY BRUSHED COPPER", "LARGE POLISHED BRASS",
		"MEDIUM PLATED TIN", "PROMO BURNISHED NICKEL", "SMALL ANODIZED COPPER", "STANDARD BRUSHED STEEL"}
	containers = []string{"JUMBO BOX", "LG CASE", "MED BAG", "SM PACK", "WRAP JAR"}
	regions    = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations    = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "CHINA", "EGYPT",
		"ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "ROMANIA", "RUSSIA",
		"SAUDI ARABIA", "UNITED KINGDOM", "UNITED STATES", "VIETNAM"}
)

// Dates are encoded as integer day numbers; TPC-H's range 1992-01-01 ..
// 1998-12-31 maps to [0, dateRange).
const dateRange = 2556

// Generate builds the database, collects statistics, creates indexes on
// all key columns, and draws samples. The returned catalog is ready for
// optimization and re-optimization.
func Generate(cfg Config) (*catalog.Catalog, error) {
	cfg = cfg.withDefaults()
	sizes := cfg.Sizes()
	cat := catalog.New()

	// region
	region := storage.NewTable("region", rel.NewSchema(
		rel.Column{Name: "r_regionkey", Kind: rel.KindInt},
		rel.Column{Name: "r_name", Kind: rel.KindString},
	))
	region.Grow(sizes["region"])
	for i := 0; i < sizes["region"]; i++ {
		region.MustAppend(rel.Row{rel.Int(int64(i)), rel.String_(regions[i%len(regions)])})
	}

	// nation
	nation := storage.NewTable("nation", rel.NewSchema(
		rel.Column{Name: "n_nationkey", Kind: rel.KindInt},
		rel.Column{Name: "n_regionkey", Kind: rel.KindInt},
		rel.Column{Name: "n_name", Kind: rel.KindString},
	))
	nation.Grow(sizes["nation"])
	for i := 0; i < sizes["nation"]; i++ {
		nation.MustAppend(rel.Row{
			rel.Int(int64(i)),
			rel.Int(int64(i % sizes["region"])),
			rel.String_(nations[i%len(nations)]),
		})
	}

	// supplier
	supplier := storage.NewTable("supplier", rel.NewSchema(
		rel.Column{Name: "s_suppkey", Kind: rel.KindInt},
		rel.Column{Name: "s_nationkey", Kind: rel.KindInt},
		rel.Column{Name: "s_acctbal", Kind: rel.KindInt},
	))
	{
		rng := rand.New(rand.NewSource(datagen.Seed(cfg.Seed, "supplier")))
		natZ := datagen.NewZipf(rng, sizes["nation"], cfg.Z)
		supplier.Grow(sizes["supplier"])
		for i := 0; i < sizes["supplier"]; i++ {
			supplier.MustAppend(rel.Row{
				rel.Int(int64(i)),
				rel.Int(natZ.Next()),
				rel.Int(int64(rng.Intn(1100000) - 100000)), // cents
			})
		}
	}

	// customer
	customer := storage.NewTable("customer", rel.NewSchema(
		rel.Column{Name: "c_custkey", Kind: rel.KindInt},
		rel.Column{Name: "c_nationkey", Kind: rel.KindInt},
		rel.Column{Name: "c_mktsegment", Kind: rel.KindString},
		rel.Column{Name: "c_acctbal", Kind: rel.KindInt},
	))
	{
		rng := rand.New(rand.NewSource(datagen.Seed(cfg.Seed, "customer")))
		natZ := datagen.NewZipf(rng, sizes["nation"], cfg.Z)
		segZ := datagen.NewZipf(rng, len(segments), cfg.Z)
		customer.Grow(sizes["customer"])
		for i := 0; i < sizes["customer"]; i++ {
			customer.MustAppend(rel.Row{
				rel.Int(int64(i)),
				rel.Int(natZ.Next()),
				rel.String_(segments[segZ.Next()]),
				rel.Int(int64(rng.Intn(1100000) - 100000)),
			})
		}
	}

	// part
	part := storage.NewTable("part", rel.NewSchema(
		rel.Column{Name: "p_partkey", Kind: rel.KindInt},
		rel.Column{Name: "p_brand", Kind: rel.KindString},
		rel.Column{Name: "p_type", Kind: rel.KindString},
		rel.Column{Name: "p_size", Kind: rel.KindInt},
		rel.Column{Name: "p_container", Kind: rel.KindString},
	))
	{
		rng := rand.New(rand.NewSource(datagen.Seed(cfg.Seed, "part")))
		brandZ := datagen.NewZipf(rng, len(brands), cfg.Z)
		typeZ := datagen.NewZipf(rng, len(types), cfg.Z)
		contZ := datagen.NewZipf(rng, len(containers), cfg.Z)
		sizeZ := datagen.NewZipf(rng, 50, cfg.Z)
		part.Grow(sizes["part"])
		for i := 0; i < sizes["part"]; i++ {
			part.MustAppend(rel.Row{
				rel.Int(int64(i)),
				rel.String_(brands[brandZ.Next()]),
				rel.String_(types[typeZ.Next()]),
				rel.Int(sizeZ.Next() + 1),
				rel.String_(containers[contZ.Next()]),
			})
		}
	}

	// partsupp
	partsupp := storage.NewTable("partsupp", rel.NewSchema(
		rel.Column{Name: "ps_partkey", Kind: rel.KindInt},
		rel.Column{Name: "ps_suppkey", Kind: rel.KindInt},
		rel.Column{Name: "ps_supplycost", Kind: rel.KindInt},
		rel.Column{Name: "ps_availqty", Kind: rel.KindInt},
	))
	{
		rng := rand.New(rand.NewSource(datagen.Seed(cfg.Seed, "partsupp")))
		suppZ := datagen.NewZipf(rng, sizes["supplier"], cfg.Z)
		partsupp.Grow(sizes["partsupp"])
		for i := 0; i < sizes["partsupp"]; i++ {
			partsupp.MustAppend(rel.Row{
				rel.Int(int64(i % sizes["part"])), // 4 suppliers per part
				rel.Int(suppZ.Next()),
				rel.Int(int64(rng.Intn(100000) + 100)),
				rel.Int(int64(rng.Intn(10000))),
			})
		}
	}

	// orders
	orders := storage.NewTable("orders", rel.NewSchema(
		rel.Column{Name: "o_orderkey", Kind: rel.KindInt},
		rel.Column{Name: "o_custkey", Kind: rel.KindInt},
		rel.Column{Name: "o_orderdate", Kind: rel.KindInt},
		rel.Column{Name: "o_orderpriority", Kind: rel.KindString},
		rel.Column{Name: "o_orderstatus", Kind: rel.KindString},
	))
	orderDates := make([]int64, sizes["orders"])
	{
		rng := rand.New(rand.NewSource(datagen.Seed(cfg.Seed, "orders")))
		custZ := datagen.NewZipf(rng, sizes["customer"], cfg.Z)
		dateZ := datagen.NewZipf(rng, dateRange, cfg.Z)
		prioZ := datagen.NewZipf(rng, len(priorities), cfg.Z)
		statZ := datagen.NewZipf(rng, len(statuses), cfg.Z)
		orders.Grow(sizes["orders"])
		for i := 0; i < sizes["orders"]; i++ {
			d := dateZ.Next()
			orderDates[i] = d
			orders.MustAppend(rel.Row{
				rel.Int(int64(i)),
				rel.Int(custZ.Next()),
				rel.Int(d),
				rel.String_(priorities[prioZ.Next()]),
				rel.String_(statuses[statZ.Next()]),
			})
		}
	}

	// lineitem
	lineitem := storage.NewTable("lineitem", rel.NewSchema(
		rel.Column{Name: "l_orderkey", Kind: rel.KindInt},
		rel.Column{Name: "l_partkey", Kind: rel.KindInt},
		rel.Column{Name: "l_suppkey", Kind: rel.KindInt},
		rel.Column{Name: "l_quantity", Kind: rel.KindInt},
		rel.Column{Name: "l_extendedprice", Kind: rel.KindInt},
		rel.Column{Name: "l_discount", Kind: rel.KindInt},
		rel.Column{Name: "l_shipdate", Kind: rel.KindInt},
		rel.Column{Name: "l_receiptdate", Kind: rel.KindInt},
		rel.Column{Name: "l_returnflag", Kind: rel.KindString},
		rel.Column{Name: "l_shipmode", Kind: rel.KindString},
	))
	{
		rng := rand.New(rand.NewSource(datagen.Seed(cfg.Seed, "lineitem")))
		orderZ := datagen.NewZipf(rng, sizes["orders"], cfg.Z)
		partZ := datagen.NewZipf(rng, sizes["part"], cfg.Z)
		suppZ := datagen.NewZipf(rng, sizes["supplier"], cfg.Z)
		flagZ := datagen.NewZipf(rng, len(returnflag), cfg.Z)
		modeZ := datagen.NewZipf(rng, len(shipmodes), cfg.Z)
		lineitem.Grow(sizes["lineitem"])
		for i := 0; i < sizes["lineitem"]; i++ {
			ok := orderZ.Next()
			ship := orderDates[ok] + int64(rng.Intn(120)+1)
			lineitem.MustAppend(rel.Row{
				rel.Int(ok),
				rel.Int(partZ.Next()),
				rel.Int(suppZ.Next()),
				rel.Int(int64(rng.Intn(50) + 1)),
				rel.Int(int64(rng.Intn(100000) + 1000)),
				rel.Int(int64(rng.Intn(11))), // percent
				rel.Int(ship),
				rel.Int(ship + int64(rng.Intn(30)+1)),
				rel.String_(returnflag[flagZ.Next()]),
				rel.String_(shipmodes[modeZ.Next()]),
			})
		}
	}

	tables := []*storage.Table{region, nation, supplier, customer, part, partsupp, orders, lineitem}
	for _, t := range tables {
		cat.MustAddTable(t)
	}

	// Indexes on key columns, as in the paper's setup.
	indexCols := map[string][]string{
		"region":   {"r_regionkey"},
		"nation":   {"n_nationkey", "n_regionkey"},
		"supplier": {"s_suppkey", "s_nationkey"},
		"customer": {"c_custkey", "c_nationkey"},
		"part":     {"p_partkey"},
		"partsupp": {"ps_partkey", "ps_suppkey"},
		"orders":   {"o_orderkey", "o_custkey"},
		"lineitem": {"l_orderkey", "l_partkey", "l_suppkey"},
	}
	for name, cols := range indexCols {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		for _, col := range cols {
			if _, err := t.CreateIndex(col); err != nil {
				return nil, fmt.Errorf("tpch: %v", err)
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
