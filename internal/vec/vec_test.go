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
	Int64Cmp(bm, vals, Lt, 3, 0, n)
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
	Int64Cmp(split, vals, Lt, 3, 0, 128)
	Int64Cmp(split, vals, Lt, 3, 128, n)
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
	Int64Cmp(a, vals, Ge, 10, 0, n)
	b := NewBitmap(n)
	Int64Cmp(b, vals, Lt, 20, 0, n)
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

// TestFloatKernelsFollowCompareSemantics: the float kernels order NaN as
// rel.Value.Compare does — equal to NaN only and after every number — on
// either side of the comparison.
func TestFloatKernelsFollowCompareSemantics(t *testing.T) {
	vals := []float64{1, math.NaN(), 2, 1}
	bm := NewBitmap(len(vals))
	for _, c := range []struct {
		op   CmpOp
		c    float64
		want int
	}{
		{Eq, 1, 2}, {Ne, 1, 2}, {Gt, 1, 2}, {Ge, 2, 2}, {Lt, 2, 2}, {Le, 2, 3},
		{Eq, math.NaN(), 1}, {Ne, math.NaN(), 3}, {Ge, math.NaN(), 1}, {Gt, math.NaN(), 0},
		{Le, math.NaN(), 4}, {Lt, math.NaN(), 3},
	} {
		Float64Cmp(bm, vals, c.op, c.c, 0, len(vals))
		if got := bm.Count(0, len(vals)); got != c.want {
			t.Errorf("op %d against %v over {1, NaN, 2, 1} = %d rows, want %d", c.op, c.c, got, c.want)
		}
	}
}
