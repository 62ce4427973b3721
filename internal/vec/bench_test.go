package vec

import (
	"fmt"
	"testing"
)

// BenchmarkVecKernels times every kernel family over one 100k-row
// column (the large-sample regime, where a validation is mostly these
// loops) and reports ns per row, so the per-row cost of a scan filter —
// and of an indirect call creeping back into one — shows in the series.
func BenchmarkVecKernels(b *testing.B) {
	const n = 100_000
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	for i := range ints {
		ints[i] = int64(i * 7919 % 1000)
		floats[i] = float64(ints[i]) / 2
		strs[i] = fmt.Sprintf("v%03d", ints[i])
	}
	bm := NewBitmap(n)
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"Int64Range", func() { Int64Range(bm, ints, 100, 500, 0, n) }},
		{"Float64Range", func() { Float64Range(bm, floats, 50, 250, 0, n) }},
		{"StringCmp/Eq", func() { StringCmp(bm, strs, Eq, "v500", 0, n) }},
		{"StringRange", func() { StringRange(bm, strs, "v100", "v500", 0, n) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}
