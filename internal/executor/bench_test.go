package executor

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
	"reopt/internal/workload/ott"
)

// intSub fabricates a one-column int sub-result whose row i holds val(i).
func intSub(n int, val func(int) int64) *subResult {
	c := storage.ColData{Kind: rel.KindInt, Ints: make([]int64, n)}
	for i := range c.Ints {
		c.Ints[i] = val(i)
	}
	return &subResult{count: n, cols: []storage.ColData{c}}
}

// BenchmarkJoinTable times the build-side hash table — one build, and one
// probe of it by as many rows drawn from the same key range — at 10^3 and
// 10^5 rows of shuffled distinct keys and of 100-row duplicate groups,
// and reports ns per row.
func BenchmarkJoinTable(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		for _, keys := range []int{n, n / 100} {
			perm := rand.New(rand.NewSource(1)).Perm(n)
			r := intSub(n, func(i int) int64 { return int64(perm[i] % keys) })
			l := intSub(n, func(i int) int64 { return int64(i % keys) })
			name := fmt.Sprintf("rows=%d/keys=%d", n, keys)
			b.Run("build/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					buildHashTable(r, []int{0})
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
			})
			b.Run("probe/"+name, func(b *testing.B) {
				j := joinProbe{l: l, r: r, lkey: []int{0}, rkey: []int{0}, table: buildHashTable(r, []int{0})}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := j.probe(nil); got != int64(n*(n/keys)) {
						b.Fatalf("probe matched %d pairs, want %d", got, n*(n/keys))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
			})
		}
	}
}

// BenchmarkCompact times compact on a scan's shape — 1800 rows selected at
// scattered positions of a 10^5-row int64 sample column — with every key
// held by 1, 3 or 27 of the selected rows, next to the plain gather it
// replaces (dups=0). It is where giveUpRows / giveUpShare were read: at
// dups=1 compaction must cost little more than the gather. The dups=3 and
// dups=27 keys span 600 and 67 values, so they group by counting; the
// wide rungs space the same keys 1,000,003 apart, past denseSpan, so the
// hash path is measured beside them and denseSpan is read off the pair.
func BenchmarkCompact(b *testing.B) {
	const sample, n = 100_000, 1800
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		dups int
		wide bool
	}{{0, false}, {1, false}, {3, false}, {27, false}, {3, true}, {27, true}} {
		dups := c.dups
		stride := int64(1)
		if c.wide {
			stride = 1_000_003
		}
		col := storage.ColData{Kind: rel.KindInt, Ints: make([]int64, sample)}
		sel := make([]int32, 0, n)
		for _, r := range rng.Perm(sample)[:n] {
			sel = append(sel, int32(r))
		}
		slices.Sort(sel)
		for i, r := range rng.Perm(n) {
			col.Ints[sel[r]] = int64(i/max(dups, 1)) * stride
		}
		srcs := []colSrc{{&col, sel}}
		name := fmt.Sprintf("dups=%d", dups)
		if c.wide {
			name = "wide/" + name
		}
		b.Run(name, func(b *testing.B) {
			sc := new(skelScratch)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if dups == 0 {
					out := col.NewLike(n)
					out.Gather(&col, sel, 0, n, 0)
					continue
				}
				if _, _, count, total := compact(sc, srcs, n, bagWeights{}); total != n || count != (n+dups-1)/dups {
					b.Fatalf("compact kept %d rows counting %d, want %d counting %d", count, total, (n+dups-1)/dups, n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}

// BenchmarkWeightedChainJoin times one cold validation of bench/'s
// ott_large shape: a 5-table OTT chain joined on b (B = A, three rows a
// value, 24000 values a table), every table range-filtered to ~1800 rows
// over the same 600 values — so every join key repeats 3, 9, 27, 81 times
// down the chain and the root counts 600 x 3^5 rows. What the joins cost
// is how many rows stand for those.
func BenchmarkWeightedChainJoin(b *testing.B) {
	cat, err := ott.Generate(ott.Config{NumTables: 5, RowsPerValue: 3, Domains: []int{24000}, SampleRatio: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := &sql.Query{CountStar: true}
	for i := 1; i <= 5; i++ {
		name := ott.TableName(i)
		q.Tables = append(q.Tables, sql.TableRef{Name: name, Alias: name})
		q.Selections = append(q.Selections, sql.Selection{Col: ref(name, "a"), Op: sql.OpBetween, Value: rel.Int(1000), Value2: rel.Int(1599)})
		if i > 1 {
			q.Joins = append(q.Joins, sql.JoinPred{Left: ref(ott.TableName(i-1), "b"), Right: ref(name, "b")})
		}
	}
	var root plan.Node = skelScan(cat, q, ott.TableName(1))
	for i := 2; i <= 5; i++ {
		root = skelJoin(q, root, skelScan(cat, q, ott.TableName(i)))
	}
	p := &plan.Plan{Root: root, Query: q}
	want, err := countSkeleton(p, cat.Sample, nil)
	if err != nil || want[root] < 600*243/2 {
		b.Fatalf("root counts %d (%v), want about 600 x 3^5", want[root], err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := countSkeletonCfg(context.Background(), p, cat.Sample, nil, 0)
		if err != nil || got[root] != want[root] {
			b.Fatalf("root counts %d (%v), want %d", got[root], err, want[root])
		}
	}
}
