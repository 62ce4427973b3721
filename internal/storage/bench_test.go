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
// values it times the two things the engine makes of a BETWEEN filter,
// each two ways: through the sorted sample index, with the cut-offs
// bypassed so both sides of each are measured, and through the scan
// kernel. A scan with one filter makes a selection vector and one gather
// of the column at it, the reads a scan's compaction makes ("index-ids":
// two binary searches, then the matching ids gathered in the index's
// (value, row id) order; "kernel-ids": range pass, NULL mask,
// AppendIndices, then an ascending gather). A scan with several filters
// makes one bitmap pass per filter ("index-bits": two binary searches,
// clear the words, set one bit per match, as the executor's indexPass
// does; "kernel-bits": range pass, NULL mask). The sweep runs at 10^5
// rows from 0.1 % to 50 % selectivity for the matches/rows cut-off, at
// 1 % from 10^3 to 10^5 rows for the minimum indexed size, and times
// what building the index costs per row ("build").
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
		col.idx.rows(col, 0, 0) // built outside the timings
		out, sel := col.NewLike(n), make([]int32, 0, n)
		hi := int64(n * permille / 1000)
		name := fmt.Sprintf("rows=%d/sel=%.1f%%", n, float64(permille)/10)
		b.Run("index-ids/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := col.idx.rows(col, 1, hi)
				out.Gather(col, rows, 0, len(rows), 0)
			}
			perRow(b, n)
		})
		b.Run("kernel-ids/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vec.Int64Range(bm, col.Ints, 1, hi, 0, n)
				vec.AndNotNulls(bm, col.NullWords, 0, n)
				sel = bm.AppendIndices(sel[:0], 0, n)
				out.Gather(col, sel, 0, len(sel), 0)
			}
			perRow(b, n)
		})
		b.Run("index-bits/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				words := bm.Words()
				clear(words)
				for _, r := range col.idx.rows(col, 1, hi) {
					if j := int(r); j >= 0 && j < n {
						words[j/vec.WordBits] |= 1 << (uint(j) % vec.WordBits)
					}
				}
			}
			perRow(b, n)
		})
		b.Run("kernel-bits/"+name, func(b *testing.B) {
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
