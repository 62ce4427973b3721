package executor

import (
	"fmt"
	"math/rand"
	"testing"

	"reopt/internal/rel"
	"reopt/internal/storage"
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
					if got := j.probe(nil, 0, n); got != n*(n/keys) {
						b.Fatalf("probe matched %d pairs, want %d", got, n*(n/keys))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
			})
		}
	}
}
