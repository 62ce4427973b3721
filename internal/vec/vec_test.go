package vec

import (
	"math"
	"testing"
)

// TestBitmapRoundTrip: kernels fill word-aligned ranges, Count and
// AppendIndices agree with a naive bit-by-bit read, including tail
// words and ranges that split mid-bitmap.
func TestBitmapRoundTrip(t *testing.T) {
	const n = 203 // deliberately not a multiple of 64
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 7)
	}
	bm := NewBitmap(n)
	Int64Range(bm, vals, math.MinInt64, 2, 0, n)
	want := 0
	for i := 0; i < n; i++ {
		set := vals[i] < 3
		if bm.Get(i) != set {
			t.Fatalf("bit %d = %v, want %v", i, bm.Get(i), set)
		}
		if set {
			want++
		}
	}
	if got := bm.Count(0, n); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	idx := bm.AppendIndices(nil, 0, n)
	if len(idx) != want {
		t.Fatalf("AppendIndices returned %d rows, want %d", len(idx), want)
	}
	for k := 1; k < len(idx); k++ {
		if idx[k] <= idx[k-1] {
			t.Fatalf("indices not ascending at %d: %v <= %v", k, idx[k], idx[k-1])
		}
	}

	// Split evaluation over two word-aligned halves must equal the
	// whole-range evaluation (the partitioned-worker contract).
	split := NewBitmap(n)
	Int64Range(split, vals, math.MinInt64, 2, 0, 128)
	Int64Range(split, vals, math.MinInt64, 2, 128, n)
	for w := range bm.Words() {
		if split.Words()[w] != bm.Words()[w] {
			t.Errorf("word %d differs between split and whole evaluation", w)
		}
	}
}

// TestAndAndNotNulls: conjunction and NULL masking operate word-wise
// and leave tail bits zero.
func TestAndAndNotNulls(t *testing.T) {
	const n = 100
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	a := NewBitmap(n)
	Int64Range(a, vals, 10, math.MaxInt64, 0, n)
	b := NewBitmap(n)
	Int64Range(b, vals, math.MinInt64, 19, 0, n)
	a.And(b, 0, n)
	if got := a.Count(0, n); got != 10 {
		t.Errorf("10 <= v < 20 count = %d, want 10", got)
	}
	nulls := make([]uint64, NumWords(n))
	nulls[0] |= 1 << 12 // row 12 is NULL
	AndNotNulls(a, nulls, 0, n)
	if got := a.Count(0, n); got != 9 {
		t.Errorf("count after NULL mask = %d, want 9", got)
	}
	if a.Get(12) {
		t.Error("NULL row survived the mask")
	}
}

// TestFloatKernelsFollowCompareSemantics: the float range kernel orders
// NaN as rel.Value.Compare does — equal to NaN only and after every
// number — at either end of the interval, and Not complements it.
func TestFloatKernelsFollowCompareSemantics(t *testing.T) {
	vals := []float64{1, math.NaN(), 2, 1}
	nan, inf := math.NaN(), math.Inf(1)
	bm := NewBitmap(len(vals))
	for _, c := range []struct {
		lo, hi float64
		not    bool
		want   int
	}{
		{1, 1, false, 2}, {1, 1, true, 2}, {math.Nextafter(1, 2), nan, false, 2}, {2, nan, false, 2},
		{-inf, math.Nextafter(2, 1), false, 2}, {-inf, 2, false, 3},
		{nan, nan, false, 1}, {nan, nan, true, 3}, {nan, -inf, false, 0},
		{-inf, nan, false, 4}, {-inf, inf, false, 3}, {2, 1, false, 0},
	} {
		Float64Range(bm, vals, c.lo, c.hi, 0, len(vals))
		if c.not {
			bm.Not(0, len(vals))
		}
		if got := bm.Count(0, len(vals)); got != c.want {
			t.Errorf("[%v, %v] (not %v) over {1, NaN, 2, 1} = %d rows, want %d", c.lo, c.hi, c.not, got, c.want)
		}
	}
}
