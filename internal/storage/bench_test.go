package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"reopt/internal/rel"
	"reopt/internal/vec"
)

// BenchmarkIndexedRangeScan is the selectivity sweep the two cut-offs in
// sortedindex.go are read from. Over one column of distinct shuffled
// values it times a BETWEEN filter answered through the sorted sample
// index ("index": two binary searches, one bit set per match, one word
// copy — with the cut-offs bypassed, so both sides of each are measured)
// against the same filter through the scan kernel ("kernel") — at 10^5
// rows from 0.1 % to 50 % selectivity for the matches/rows cut-off, at
// 1 % from 10^3 to 10^5 rows for the minimum indexed size — and what
// building the index costs per row ("build").
func BenchmarkIndexedRangeScan(b *testing.B) {
	column := func(n int) *ColData {
		c := &ColData{Kind: rel.KindInt, Ints: make([]int64, n), idx: new(sortedIndex)}
		for i, v := range rand.New(rand.NewSource(1)).Perm(n) {
			c.Ints[i] = int64(v)
		}
		return c
	}
	perRow := func(b *testing.B, n int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
	}
	sweep := func(n, permille int) {
		col, bm := column(n), vec.NewBitmap(n)
		hi := int64(n * permille / 1000)
		name := fmt.Sprintf("rows=%d/sel=%.1f%%", n, float64(permille)/10)
		b.Run("index/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(bm.Words(), rowBits(col.idx.rows(col, 1, hi), n))
			}
			perRow(b, n)
		})
		b.Run("kernel/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vec.Int64Range(bm, col.Ints, 1, hi, 0, n)
				vec.AndNotNulls(bm, col.NullWords, 0, n)
			}
			perRow(b, n)
		})
	}
	for _, permille := range []int{1, 10, 50, 100, 250, 500} {
		sweep(100_000, permille)
	}
	for _, n := range []int{1_000, 4_096, 16_384} {
		sweep(n, 10)
	}
	for _, n := range []int{4_096, 100_000, 288_000} {
		col := column(n)
		b.Run(fmt.Sprintf("build/rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sortedPerm(col.Ints, nil)
			}
			perRow(b, n)
		})
	}
}
