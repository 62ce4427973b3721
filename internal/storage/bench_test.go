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
// what building a sample's own slot — an unindexed one, so its
// permutation without runs — costs per row ("build"). At every point it
// also reads a second column of the store — the boundary column a scan
// carries — at the index's rows, two ways: gathered at the row ids
// ("other-gather") and copied from its ordered copy's run ("other-run"),
// which is what an index-answered scan now reads.
func BenchmarkIndexedRangeScan(b *testing.B) {
	store := func(n int) *ColStore {
		cs := &ColStore{numRows: n, cols: make([]ColData, 2)}
		for k := range cs.cols {
			cs.cols[k] = ColData{Kind: rel.KindInt, Ints: make([]int64, n)}
		}
		for i, v := range rand.New(rand.NewSource(1)).Perm(n) {
			cs.cols[0].Ints[i], cs.cols[1].Ints[i] = int64(v), int64(v%997)
		}
		cs.cols[0].idx = newSortedIndex(cs, 0, false) // below indexMinRows too
		return cs
	}
	perRow := func(b *testing.B, n int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
	}
	sweep := func(n, permille int) {
		cs := store(n)
		col, other, bm := cs.Col(0), cs.Col(1), vec.NewBitmap(n)
		hi := int64(n * permille / 1000)
		col.idx.span(0, 0) // built outside the timings
		a, z := col.idx.span(1, hi)
		col.idx.ordered(1)
		out, sel := col.NewLike(n), make([]int32, 0, n)
		name := fmt.Sprintf("rows=%d/sel=%.1f%%", n, float64(permille)/10)
		b.Run("index-ids/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, z := col.idx.span(1, hi)
				rows := col.idx.perm[a:z]
				out.Gather(col, rows, 0, len(rows), 0)
			}
			perRow(b, n)
		})
		b.Run("other-gather/"+name, func(b *testing.B) {
			rows := col.idx.perm[a:z]
			for i := 0; i < b.N; i++ {
				out.Gather(other, rows, 0, len(rows), 0)
			}
			perRow(b, n)
		})
		b.Run("other-run/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run := col.idx.ordered(1).slice(a, z)
				copy(out.Ints, run.Ints)
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
				a, z := col.idx.span(1, hi)
				for _, r := range col.idx.perm[a:z] {
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
		cs := store(n)
		b.Run(fmt.Sprintf("build/rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				newSortedIndex(cs, 0, false).build()
			}
			perRow(b, n)
		})
	}
}
