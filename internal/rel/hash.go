package rel

import "math"

// 64-bit hashing of values, used for hash-join buckets and group-by
// tables: FNV-1a over the kind tag and string bytes, and one
// multiply-xorshift step per numeric payload word (mixUint64), which
// folds the well-mixed high bits back into the low ones so a table
// bucketing by either end sees the whole key. Hashing agrees with Equal
// on every value: Equal values produce the same hash (an integer and a
// float holding the same number, -0.0 and 0.0, any two NaNs), so a hash
// table bucketed by Hash64 only needs an Equal check to reject
// collisions, never a re-hash.

const (
	// HashSeed is the FNV-1a offset basis; start every row hash here.
	HashSeed uint64 = 14695981039346656037
	fnvPrime uint64 = 1099511628211
	// mixPrime is 2^64 divided by the golden ratio, made odd (Fibonacci
	// hashing): consecutive integers land far apart.
	mixPrime uint64 = 0x9E3779B97F4A7C15
)

// kind tags mixed into the hash so that, say, Int(0) and String_("")
// cannot collide structurally across columns of a multi-column key.
const (
	tagNull   byte = 0xA0
	tagNum    byte = 0xA1
	tagFloat  byte = 0xA2
	tagString byte = 0xA3
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

// mixUint64 folds one 64-bit payload into h: a multiply by an odd
// constant spreads every input bit upward, the xorshift brings the high
// half back down.
func mixUint64(h uint64, v uint64) uint64 {
	h = (h ^ v) * mixPrime
	return h ^ h>>32
}

// HashInt64 folds an integer payload into h with the numeric tag,
// without requiring a constructed Value.
func HashInt64(h uint64, v int64) uint64 {
	return mixUint64(fnvByte(h, tagNum), uint64(v))
}

// HashFloat64 folds a float payload into h, agreeing with HashInt64 for
// floats that hold an integer in the int64 range (FloatInt), as Equal
// does.
func HashFloat64(h uint64, f float64) uint64 {
	if i, c := FloatInt(f); c == 0 {
		return HashInt64(h, i)
	}
	return mixUint64(fnvByte(h, tagFloat), floatBits(f))
}

// floatBits is Float64bits with every NaN payload folded into one, as
// Equal folds them.
func floatBits(f float64) uint64 {
	if f != f {
		f = math.NaN()
	}
	return math.Float64bits(f)
}

// HashString folds a string payload into h.
func HashString(h uint64, s string) uint64 {
	h = fnvByte(h, tagString)
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// Hash64 folds the value into the running hash state h.
func (v Value) Hash64(h uint64) uint64 {
	switch v.kind {
	case KindInt:
		return HashInt64(h, v.i)
	case KindFloat:
		return HashFloat64(h, v.f)
	case KindString:
		return HashString(h, v.s)
	default:
		return fnvByte(h, tagNull)
	}
}

// HashRow hashes the row's values at positions idx, in order, starting
// from HashSeed — the multi-column join/group key hash.
func HashRow(row Row, idx []int) uint64 {
	h := HashSeed
	for _, i := range idx {
		h = row[i].Hash64(h)
	}
	return h
}
