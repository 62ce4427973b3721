package vec

import (
	"fmt"
	"math"
	"testing"

	"reopt/internal/rel"
)

// The differential kernel table: every kernel against row-by-row
// rel.Value.Compare — the semantics sql.EvalSelection gives the general
// executor — on columns and constants chosen to sit on each kernel's
// edges (the ends of the integer domain that the unsigned range compare
// wraps around, infinities, NaN on either side, -0.0, the empty string,
// inverted ranges), at lengths around the word size, over whole columns
// and over word-aligned sub-ranges.

var (
	edgeInts = []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 2, 499, 500, 501,
		1 << 53, 1<<53 + 1, math.MaxInt64 - 1, math.MaxInt64}
	edgeFloats = []float64{math.Inf(-1), -math.MaxFloat64, -1.5, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1, 499.5, 500, math.MaxFloat64, math.Inf(1), math.NaN()}
	edgeStrs = []string{"", "\x00", "a", "ab", "b", "m", "mm", "z", "\xff"}
	allOps   = []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}
	opNames  = [...]string{Eq: "Eq", Ne: "Ne", Lt: "Lt", Le: "Le", Gt: "Gt", Ge: "Ge"}
)

// column cycles the edge values with a stride coprime to their count, so
// every length >= len(edges) holds every edge and neighbours vary.
func column[T any](edges []T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = edges[(i*7+i/len(edges))%len(edges)]
	}
	return out
}

// opHolds decodes a Compare result under op.
func opHolds(op CmpOp, cmp int) bool {
	switch op {
	case Eq:
		return cmp == 0
	case Ne:
		return cmp != 0
	case Lt:
		return cmp < 0
	case Le:
		return cmp <= 0
	case Gt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

func inRange(v, lo, hi rel.Value) bool { return v.Compare(lo) >= 0 && v.Compare(hi) <= 0 }

// checkKernel runs one kernel over every tested row range of an n-row
// column and compares with want: rows inside the range bit for bit, tail
// bits of the range's last word zero, words outside the range untouched.
func checkKernel(t *testing.T, name string, n int, run func(bm *Bitmap, lo, hi int), want func(i int) bool) {
	t.Helper()
	ranges := [][2]int{{0, n}}
	if n > 2*WordBits {
		ranges = append(ranges, [2]int{0, WordBits}, [2]int{WordBits, 3 * WordBits},
			[2]int{n &^ (WordBits - 1), n}, [2]int{2 * WordBits, n}, [2]int{WordBits, WordBits})
	}
	const sentinel = 0xA5A5A5A5A5A5A5A5
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		bm := NewBitmap(n)
		for w := range bm.words {
			bm.words[w] = sentinel
		}
		run(bm, lo, hi)
		for w, word := range bm.words {
			if w < lo/WordBits || w >= NumWords(hi) || lo == hi {
				if word != sentinel {
					t.Fatalf("%s n=%d [%d,%d): word %d outside the range was written", name, n, lo, hi, w)
				}
				continue
			}
			for b := 0; b < WordBits; b++ {
				i := w*WordBits + b
				got := word>>uint(b)&1 != 0
				if exp := i < hi && want(i); got != exp {
					t.Fatalf("%s n=%d [%d,%d): row %d = %v, want %v", name, n, lo, hi, i, got, exp)
				}
			}
		}
	}
}

func TestKernelsMatchCompare(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		ints := column(edgeInts, n)
		floats := column(edgeFloats, n)
		strs := column(edgeStrs, n)

		for _, c := range edgeInts {
			for _, c2 := range edgeInts { // includes every inverted pair c > c2
				checkKernel(t, fmt.Sprintf("Int64Range [%d,%d]", c, c2), n,
					func(bm *Bitmap, lo, hi int) { Int64Range(bm, ints, c, c2, lo, hi) },
					func(i int) bool { return inRange(rel.Int(ints[i]), rel.Int(c), rel.Int(c2)) })
				checkKernel(t, fmt.Sprintf("Int64Range [%d,%d] then Not", c, c2), n,
					func(bm *Bitmap, lo, hi int) { Int64Range(bm, ints, c, c2, lo, hi); bm.Not(lo, hi) },
					func(i int) bool { return !inRange(rel.Int(ints[i]), rel.Int(c), rel.Int(c2)) })
			}
		}
		for _, c := range edgeFloats {
			for _, c2 := range edgeFloats {
				checkKernel(t, fmt.Sprintf("Float64Range [%v,%v]", c, c2), n,
					func(bm *Bitmap, lo, hi int) { Float64Range(bm, floats, c, c2, lo, hi) },
					func(i int) bool { return inRange(rel.Float(floats[i]), rel.Float(c), rel.Float(c2)) })
				checkKernel(t, fmt.Sprintf("Float64Range [%v,%v] then Not", c, c2), n,
					func(bm *Bitmap, lo, hi int) { Float64Range(bm, floats, c, c2, lo, hi); bm.Not(lo, hi) },
					func(i int) bool { return !inRange(rel.Float(floats[i]), rel.Float(c), rel.Float(c2)) })
			}
		}
		for _, c := range edgeStrs {
			for _, op := range allOps {
				checkKernel(t, fmt.Sprintf("StringCmp %s %q", opNames[op], c), n,
					func(bm *Bitmap, lo, hi int) { StringCmp(bm, strs, op, c, lo, hi) },
					func(i int) bool { return opHolds(op, rel.String_(strs[i]).Compare(rel.String_(c))) })
			}
			for _, c2 := range edgeStrs {
				checkKernel(t, fmt.Sprintf("StringRange [%q,%q]", c, c2), n,
					func(bm *Bitmap, lo, hi int) { StringRange(bm, strs, c, c2, lo, hi) },
					func(i int) bool { return inRange(rel.String_(strs[i]), rel.String_(c), rel.String_(c2)) })
			}
		}
	}
}
