// Package rel defines the relational data model shared by every layer of
// the system: typed values, rows, column and table schemas, and the
// comparison semantics used by predicates, joins, sorting, and indexing.
//
// The model is intentionally compact: three scalar types (64-bit integer,
// 64-bit float, string) cover every workload in the paper — TPC-H-style
// keys, dates (encoded as days), and decimals (encoded as hundredths) are
// all integers, while names and flags are strings.
package rel

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

const (
	// KindNull is the SQL NULL marker. Null compares less than every
	// non-null value and is never equal to anything, including itself,
	// under predicate semantics (use Value.Equal for predicate equality
	// and Compare for total ordering).
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE-754 float.
	KindFloat
	// KindString is an immutable byte string.
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "TEXT"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single relational scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String_ returns a string value. The trailing underscore avoids a clash
// with the fmt.Stringer method on Value.
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Kind reports the runtime type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It panics if the value is not an
// integer; use Kind to check first when the type is not statically known.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("rel: AsInt on %s value", v.kind))
	}
	return v.i
}

// AsFloat returns the float payload, widening integers.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("rel: AsFloat on %s value", v.kind))
	}
}

// AsString returns the string payload. It panics on non-string values.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("rel: AsString on %s value", v.kind))
	}
	return v.s
}

// String renders the value for plans, traces, and error messages.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	default:
		return "?"
	}
}

// Equal reports SQL predicate equality: NULL = anything is false, and
// numeric values compare exactly across int/float kinds.
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return false
	}
	return v.compareNonNull(o) == 0
}

// Compare returns a total ordering over values: -1, 0, or +1. NULL sorts
// before every non-null value and equals itself, which makes Compare
// usable for sorting and ordered indexes. Values of incomparable kinds
// (string vs numeric) order by kind.
func (v Value) Compare(o Value) int {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	return v.compareNonNull(o)
}

func (v Value) compareNonNull(o Value) int {
	switch {
	case v.kind == KindInt && o.kind == KindFloat:
		return cmpIntFloat(v.i, o.f)
	case v.kind == KindFloat && o.kind == KindInt:
		return -cmpIntFloat(o.i, v.f)
	case v.kind != o.kind:
		// Arbitrary but stable cross-kind ordering.
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindInt:
		return cmp.Compare(v.i, o.i)
	case KindFloat:
		return cmpFloat(v.f, o.f)
	case KindString:
		return cmp.Compare(v.s, o.s)
	default:
		return 0
	}
}

// cmpIntFloat is the one comparison between an integer and a float: the
// sign of i - f, computed exactly — no rounding of i to a float64 — in
// cmpFloat's order, where NaN sorts above every number. Compare and Equal
// use it; Key and the hashes use FloatInt, its range-checked placement of
// f among the integers, so all four agree on the whole int64 and float64
// domains.
func cmpIntFloat(i int64, f float64) int {
	t, c := FloatInt(f)
	if i != t {
		return cmp.Compare(i, t)
	}
	return -c
}

// FloatInt places f among the integers: i is f rounded toward zero and
// clamped to the int64 range, and c is how f compares with i in Compare's
// order — 0 when f holds exactly the integer i (-0.0 holds 0), 1 when f
// lies strictly between i and i+1 or above every int64 (NaN included),
// -1 when it lies strictly between i-1 and i or below every int64. The
// range is checked before converting: Go leaves int64(f) outside it
// implementation-defined (amd64 and arm64 disagree at 2^63).
func FloatInt(f float64) (i int64, c int) {
	switch {
	case !(f < 0x1p63): // 2^63 and above, +Inf, NaN
		return math.MaxInt64, 1
	case f < -0x1p63:
		return math.MinInt64, -1
	}
	i = int64(f)
	return i, cmpFloat(f, float64(i))
}

// cmpFloat orders floats by PostgreSQL's rule: NaN equals NaN and sorts
// after every number (so Compare is an order and Equal an equivalence);
// -0.0 equals 0.0.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case a == a: // only b is NaN
		return -1
	case b == b: // only a is NaN
		return 1
	default:
		return 0
	}
}

// Key returns a compact representation usable as a map key for hash
// joins, group-by, and distinct counting: two non-NULL values share a key
// exactly when they are Equal. A float holding an integer in the int64
// range (FloatInt) takes that integer's key.
func (v Value) Key() ValueKey {
	switch v.kind {
	case KindNull:
		return ValueKey{kind: KindNull}
	case KindInt:
		return ValueKey{kind: KindInt, num: v.i}
	case KindFloat:
		if i, c := FloatInt(v.f); c == 0 {
			return ValueKey{kind: KindInt, num: i}
		}
		return ValueKey{kind: KindFloat, num: int64(floatBits(v.f))}
	case KindString:
		return ValueKey{kind: KindString, str: v.s}
	default:
		return ValueKey{}
	}
}

// ValueKey is a comparable projection of a Value, suitable for map keys.
type ValueKey struct {
	kind Kind
	num  int64
	str  string
}

// IsNull reports whether the key encodes SQL NULL.
func (k ValueKey) IsNull() bool { return k.kind == KindNull }
