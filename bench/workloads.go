package main

import (
	"fmt"
	"math/rand"
	"strings"

	"reopt"
	"reopt/internal/server"
	"reopt/internal/workload/tpch"
)

// callKind selects the endpoint one generated call goes to.
type callKind int

const (
	callReoptimize callKind = iota // POST /v1/reoptimize, one query
	callWorkload                   // POST /v1/workload, a batch
	callValidate                   // POST /v1/validate, a batch
)

// call is one generated request: the only thing the server ever sees
// of a workload is the SQL text inside it.
type call struct {
	kind callKind
	sql  []string
}

// dbSeed fixes every database: -seed drives the SQL sequence only, so
// two seeds exercise the same samples with different traffic.
const dbSeed = 1

// qualitySeed generates each workload's fixed quality subset; it is
// not a run seed, so plan_work_ratio repeats exactly across seeds.
const qualitySeed = 0x5eed

// spec describes one workload: its database, its traffic generator and
// how the load is offered. Sizes live here and nowhere else.
type spec struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	// ott marks workloads whose every query is empty by Algorithm 2's
	// construction (mismatched constants over B = A), so the guard can
	// check COUNT(*) = 0 without trusting our executor.
	ott       bool
	templates bool // quota adds template_sharing
	catalog   func(smoke bool) (*reopt.Catalog, error)
	// newGen returns the deterministic call sequence for a seed.
	newGen func(seed int64) func() call
	// clients > 0 is a closed loop with that many clients; otherwise
	// the loop is open at rate calls/s over at most 2 connections.
	clients int
	rate    float64
	// warmCalls continue the sequence before timing starts; a count,
	// not a duration, so setup_s moves when the program gets faster.
	warmCalls int
	// ladderQueries is how many single queries each rung of the traced
	// ladder replays; fixed so per-query counts repeat exactly.
	ladderQueries int
}

// quota is what the workload's tenant runs under: the zero-config
// reoptd default, plus template sharing where the workload is about it.
func (s *spec) quota() server.Quota {
	q := server.DefaultQuota()
	q.TemplateSharing = s.templates
	return q
}

func specs() []*spec {
	return []*spec{
		{
			name: "ott_small",
			why:  "paper regime: 600-row samples, 4096 distinct 5-6 table OTT chains > 4096-entry cache, 2 closed-loop clients; per-call fixed cost of server/session/optimizer dominates, kernels must show no change",
			ott:  true,
			catalog: func(smoke bool) (*reopt.Catalog, error) {
				return reopt.GenerateOTT(reopt.OTTConfig{Seed: dbSeed, NumTables: 6, RowsPerValue: pick(smoke, 10, 30)})
			},
			newGen:        ottSmallGen,
			clients:       2,
			warmCalls:     600,
			ladderQueries: 400,
		},
		{
			name: "ott_large",
			why:  "same engine on 72k-120k row samples, 5-table range chains that never repeat, 1 closed-loop client; validation is >80% of request time so scan/build/probe kernels and fan-out show here only",
			ott:  true,
			catalog: func(smoke bool) (*reopt.Catalog, error) {
				return reopt.GenerateOTT(reopt.OTTConfig{
					Seed: dbSeed, NumTables: 5, RowsPerValue: 3,
					Domains:     scaleInts(ottLargeDomains, pick(smoke, 20, 1)),
					SampleRatio: 1.0,
				})
			},
			newGen:        ottLargeGen,
			clients:       1,
			warmCalls:     40,
			ladderQueries: 80,
		},
		{
			name:      "template_zipf",
			why:       "parametrized traffic: 3 range templates, Zipf constants, working set fits the cache, template sharing on; open loop at 900 calls/s on 2 connections, latency from due time; server/admission/cache path",
			ott:       true,
			templates: true,
			catalog: func(smoke bool) (*reopt.Catalog, error) {
				return reopt.GenerateOTT(reopt.OTTConfig{
					Seed: dbSeed, NumTables: 4, RowsPerValue: pick(smoke, 40, 720),
					Domains: []int{400, 360, 320, 28}, SampleRatio: 1.0,
				})
			},
			newGen:        templateZipfGen,
			rate:          900,
			warmCalls:     600,
			ladderQueries: 400,
		},
		{
			name: "tpch_batch",
			why:  "skewed TPC-H, all 21 templates: /v1/workload batches of 8 at parallelism 2, every 4th call a /v1/validate of 8; batch endpoint, in-request coalescing, 8-table DP; guards batch throughput, real joins",
			catalog: func(smoke bool) (*reopt.Catalog, error) {
				return reopt.GenerateTPCH(reopt.TPCHConfig{Seed: dbSeed, Customers: pick(smoke, 150, 1500), Z: 1})
			},
			newGen:        tpchBatchGen,
			clients:       1,
			warmCalls:     12,
			ladderQueries: 210,
		},
	}
}

func specByName(name string) (*spec, error) {
	var names []string
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func pick(smoke bool, small, full int) int {
	if smoke {
		return small
	}
	return full
}

func scaleInts(xs []int, div int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = x / div
	}
	return out
}

// singles flattens the first n queries of a seed's sequence — what the
// ladder and the quality guard replay one at a time.
func (s *spec) singles(seed int64, n int) []string {
	gen := s.newGen(seed)
	out := make([]string, 0, n)
	for len(out) < n {
		out = append(out, gen().sql...)
	}
	return out[:n]
}

// ottChain renders an OTT-shaped chain over the given tables: one local
// predicate per table, adjacent tables joined on b.
func ottChain(tables []int, pred func(pos int) string) string {
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

// permTables picks n of the tables r1..rTotal in random chain order.
func permTables(rng *rand.Rand, total, n int) []int {
	perm := rng.Perm(total)[:n]
	for i := range perm {
		perm[i]++
	}
	return perm
}

const (
	ottSmallPool      = 4096 // distinct queries; their join subtrees exceed the 4096-entry cache
	ottSmallConstants = 40   // every table's domain holds 0..39, so the 240 leaf scans fit the cache
)

// ottSmallGen draws uniformly from a seed-built pool of distinct
// paper-shaped chains: n in {5,6}, m = 4 selections on c1 and the rest
// on c2 != c1, so every query is empty while its same-constant
// sub-chain is not.
func ottSmallGen(seed int64) func() call {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]string, 0, ottSmallPool)
	seen := make(map[string]bool, ottSmallPool)
	for len(pool) < ottSmallPool {
		n := 5 + rng.Intn(2)
		tables := permTables(rng, 6, n)
		c1 := rng.Intn(ottSmallConstants)
		c2 := (c1 + 1 + rng.Intn(ottSmallConstants-1)) % ottSmallConstants
		minority := map[int]bool{}
		for len(minority) < n-4 {
			minority[rng.Intn(n)] = true
		}
		q := ottChain(tables, func(pos int) string {
			if minority[pos] {
				return fmt.Sprintf("= %d", c2)
			}
			return fmt.Sprintf("= %d", c1)
		})
		if !seen[q] {
			seen[q] = true
			pool = append(pool, q)
		}
	}
	return func() call {
		return call{kind: callReoptimize, sql: []string{pool[rng.Intn(len(pool))]}}
	}
}

// ottLargeDomains size the 10^5-row samples (x RowsPerValue 3 at ratio 1).
var ottLargeDomains = []int{40000, 36000, 32000, 28000, 24000}

// ottLargeGen chains all five tables with one shared range on four of
// them and a disjoint range on the fifth: the joins build and probe
// thousands of rows, the result is empty, and no constant repeats.
func ottLargeGen(seed int64) func() call {
	rng := rand.New(rand.NewSource(seed))
	const minDomain = 24000
	return func() call {
		tables := permTables(rng, 5, 5)
		w := 200 + rng.Intn(401)
		lo := rng.Intn(minDomain/2 - w)
		other := minDomain/2 + rng.Intn(minDomain/2-w)
		odd := rng.Intn(5)
		q := ottChain(tables, func(pos int) string {
			if pos == odd {
				return fmt.Sprintf("BETWEEN %d AND %d", other, other+w)
			}
			return fmt.Sprintf("BETWEEN %d AND %d", lo, lo+w)
		})
		return call{kind: callReoptimize, sql: []string{q}}
	}
}

// zipfTemplates are PR 10's replayer: the anchor constants lie outside
// every range constant's reach, so the joins are empty and the
// validated work is the scans.
var zipfTemplates = []string{
	"SELECT COUNT(*) FROM r1, r2, r3 WHERE r1.a BETWEEN 1 AND %d AND r1.b BETWEEN 1 AND %d AND r2.a = 350 AND r3.a = 310 AND r1.b = r2.b AND r2.b = r3.b",
	"SELECT COUNT(*) FROM r1, r2, r3 WHERE r2.a BETWEEN 1 AND %d AND r2.b BETWEEN 1 AND %d AND r1.a = 390 AND r3.a = 310 AND r1.b = r2.b AND r2.b = r3.b",
	"SELECT COUNT(*) FROM r1, r3, r4 WHERE r3.a BETWEEN 1 AND %d AND r3.b BETWEEN 1 AND %d AND r1.a = 390 AND r4.a = 27 AND r1.b = r3.b AND r3.b = r4.b",
}

func templateZipfGen(seed int64) func() call {
	rng := rand.New(rand.NewSource(seed))
	consts := rand.NewZipf(rng, 1.07, 1.0, 38)
	tmpls := rand.NewZipf(rng, 1.4, 1.0, uint64(len(zipfTemplates)-1))
	return func() call {
		k := 2 + int(consts.Uint64()) // range constant in [2, 40]
		return call{kind: callReoptimize, sql: []string{fmt.Sprintf(zipfTemplates[tmpls.Uint64()], k, k)}}
	}
}

const tpchBatchSize = 8

// tpchBatchGen walks seeded permutations of the 21 templates, so every
// window of 21 instances holds each template once and the mix does not
// drift with the seed; only constants and order do.
func tpchBatchGen(seed int64) func() call {
	rng := rand.New(rand.NewSource(seed))
	tpls := tpch.Templates()
	var order []int
	nextSQL := func() string {
		if len(order) == 0 {
			order = rng.Perm(len(tpls))
		}
		t := tpls[order[0]]
		order = order[1:]
		return t.Gen(rng)
	}
	calls := 0
	return func() call {
		calls++
		c := call{kind: callWorkload, sql: make([]string, tpchBatchSize)}
		if calls%4 == 0 {
			c.kind = callValidate
		}
		for i := range c.sql {
			c.sql[i] = nextSQL()
		}
		return c
	}
}
