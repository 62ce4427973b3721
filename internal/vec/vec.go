// Package vec implements selection bitmaps and vectorized predicate
// kernels over typed columns. A scan filter is evaluated for the whole
// column at once into a Bitmap (one bit per row) by a loop specialized to
// the column kind whose compare is written inline — one range test per
// numeric kind, into which the caller has already turned the filter's
// operator and constant (an exact interval of the column's own kind), and
// a complement for <> — so a row costs a load, a compare and a shift,
// with no call and no data-dependent branch. Conjunctive filters fuse by
// AND-ing their bitmaps word-wise, and only the final bitmap is
// materialized into a selection vector. All kernels operate on an
// explicit word-aligned row range so callers can partition one bitmap
// across workers: two workers whose ranges share no word never touch the
// same memory.
package vec

import "math/bits"

// WordBits is the bitmap word width; row i lives in word i/WordBits.
const WordBits = 64

// NumWords returns the number of uint64 words a bitmap over n rows needs.
func NumWords(n int) int { return (n + WordBits - 1) / WordBits }

// Bitmap is a bitset over rows 0..n-1 backed by uint64 words. Bits at
// positions >= n are always zero (every kernel masks its tail), so
// Count and AppendIndices need no special casing.
type Bitmap struct {
	n     int
	words []uint64
}

// NewBitmap returns an all-zero bitmap over n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{n: n, words: make([]uint64, NumWords(n))}
}

// Len returns the number of rows the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Reset reconfigures b to cover n rows, reusing the word storage when it
// is large enough. The words are left dirty: every kernel's first pass
// overwrites its whole word range (kernels assign, never OR), so a
// caller that always runs a filling pass before reading needs no
// clearing.
func (b *Bitmap) Reset(n int) {
	w := NumWords(n)
	if cap(b.words) < w {
		b.words = make([]uint64, w)
	} else {
		b.words = b.words[:w]
	}
	b.n = n
}

// Words exposes the backing words for kernels and partitioned writers.
func (b *Bitmap) Words() []uint64 { return b.words }

// Get reports whether row i is set.
func (b *Bitmap) Get(i int) bool {
	return b.words[i/WordBits]>>(uint(i)%WordBits)&1 != 0
}

// And intersects rows [lo, hi) with o in place; lo and hi must be
// word-aligned or equal to the row count.
func (b *Bitmap) And(o *Bitmap, lo, hi int) {
	w0, w1 := lo/WordBits, NumWords(hi)
	dst, src := b.words, o.words
	for w := w0; w < w1; w++ {
		dst[w] &= src[w]
	}
}

// Count returns the number of set rows in [lo, hi); lo and hi must be
// word-aligned or equal to the row count.
func (b *Bitmap) Count(lo, hi int) int {
	c := 0
	for w, w1 := lo/WordBits, NumWords(hi); w < w1; w++ {
		c += bits.OnesCount64(b.words[w])
	}
	return c
}

// AppendIndices appends the set rows in [lo, hi) to dst in ascending
// order; lo and hi must be word-aligned or equal to the row count.
func (b *Bitmap) AppendIndices(dst []int32, lo, hi int) []int32 {
	for w, w1 := lo/WordBits, NumWords(hi); w < w1; w++ {
		word := b.words[w]
		base := int32(w * WordBits)
		for word != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// b2u converts a bool to 0/1; the compiler lowers the conditional to a
// flag-setting instruction, so the kernel loops below carry no
// data-dependent branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Not inverts rows [lo, hi) in place, keeping bits beyond hi zero; lo
// must be word-aligned. A range kernel followed by Not is the <> filter.
func (b *Bitmap) Not(lo, hi int) {
	for base := lo; base < hi; base += WordBits {
		word := ^b.words[base/WordBits]
		if n := hi - base; n < WordBits {
			word &= 1<<uint(n) - 1
		}
		b.words[base/WordBits] = word
	}
}

// CmpOp is the comparison StringCmp applies between column values and
// the constant.
type CmpOp uint8

const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// Every kernel below fills rows [lo, hi) of dst word by word; lo must be
// word-aligned. Only words inside the range are written (assigned, never
// ORed), so partitioned callers with disjoint word ranges never race,
// and bits beyond hi in the final word are left zero. The compare is
// written out inside each loop: no kernel makes a call per row.

// Int64Range evaluates lo64 <= vals[i] <= hi64 (BETWEEN) for rows
// [lo, hi) as the single unsigned compare v-lo64 <= hi64-lo64 (a v below
// lo64 wraps to a huge difference). That identity needs lo64 <= hi64, so
// an inverted range is answered up front as the empty set.
func Int64Range(dst *Bitmap, vals []int64, lo64, hi64 int64, lo, hi int) {
	width := uint64(hi64) - uint64(lo64)
	for base := lo; base < hi; base += WordBits {
		var word uint64
		if lo64 <= hi64 {
			chunk := vals[base:min(base+WordBits, hi)]
			for i := len(chunk) - 1; i >= 0; i-- {
				word = word<<1 + b2u(uint64(chunk[i])-uint64(lo64) <= width)
			}
		}
		dst.words[base/WordBits] = word
	}
}

// Float64Range evaluates lo64 <= vals[i] <= hi64 (BETWEEN) for rows
// [lo, hi) in rel.Value.Compare's order, where NaN equals NaN and sorts
// after every number: !(v < lo64) admits a NaN row above any numeric
// bound and v <= hi64 rejects it below one; a NaN upper bound — how an
// interval open at the top is closed — admits every row from lo64 up, and
// a NaN lower bound leaves only the NaN rows. One loop per case, chosen
// per word.
func Float64Range(dst *Bitmap, vals []float64, lo64, hi64 float64, lo, hi int) {
	loNaN, hiNaN := lo64 != lo64, hi64 != hi64
	for base := lo; base < hi; base += WordBits {
		var word uint64
		chunk := vals[base:min(base+WordBits, hi)]
		switch {
		case loNaN:
			for i := len(chunk) - 1; i >= 0; i-- {
				v := chunk[i]
				word = word<<1 + b2u(v != v)&b2u(hiNaN)
			}
		case hiNaN:
			for i := len(chunk) - 1; i >= 0; i-- {
				word = word<<1 + b2u(!(chunk[i] < lo64))
			}
		default:
			for i := len(chunk) - 1; i >= 0; i-- {
				v := chunk[i]
				word = word<<1 + b2u(!(v < lo64))&b2u(v <= hi64)
			}
		}
		dst.words[base/WordBits] = word
	}
}

// StringCmp evaluates vals[i] op c for rows [lo, hi). Strings have no
// greatest value to close an interval with, so the six operators are
// three one-sided loops (==, <=, >=), chosen once per word, and their
// complements.
func StringCmp(dst *Bitmap, vals []string, op CmpOp, c string, lo, hi int) {
	for base := lo; base < hi; base += WordBits {
		chunk := vals[base:min(base+WordBits, hi)]
		var word uint64
		switch op {
		case Le, Gt:
			for i := len(chunk) - 1; i >= 0; i-- {
				word = word<<1 + b2u(chunk[i] <= c)
			}
		case Ge, Lt:
			for i := len(chunk) - 1; i >= 0; i-- {
				word = word<<1 + b2u(chunk[i] >= c)
			}
		default:
			for i := len(chunk) - 1; i >= 0; i-- {
				word = word<<1 + b2u(chunk[i] == c)
			}
		}
		dst.words[base/WordBits] = word
	}
	if op == Ne || op == Gt || op == Lt {
		dst.Not(lo, hi)
	}
}

// StringRange is the fused BETWEEN for string columns.
func StringRange(dst *Bitmap, vals []string, lo64, hi64 string, lo, hi int) {
	for base := lo; base < hi; base += WordBits {
		var word uint64
		chunk := vals[base:min(base+WordBits, hi)]
		for i := len(chunk) - 1; i >= 0; i-- {
			word = word<<1 + b2u(chunk[i] >= lo64 && chunk[i] <= hi64)
		}
		dst.words[base/WordBits] = word
	}
}

// AndNotNulls clears rows [lo, hi) whose null bit is set; nulls is the
// column's null bitmap words (nil means no NULLs).
func AndNotNulls(dst *Bitmap, nulls []uint64, lo, hi int) {
	if nulls == nil {
		return
	}
	w0, w1 := lo/WordBits, NumWords(hi)
	words := dst.words
	for w := w0; w < w1; w++ {
		words[w] &^= nulls[w]
	}
}
