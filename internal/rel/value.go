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
	"fmt"
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
// numeric values compare across int/float kinds.
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
	// Numeric kinds compare by value across int/float.
	if v.kind != o.kind {
		if isNumeric(v.kind) && isNumeric(o.kind) {
			return cmpFloat(v.AsFloat(), o.AsFloat())
		}
		// Arbitrary but stable cross-kind ordering.
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindInt:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		default:
			return 0
		}
	case KindFloat:
		return cmpFloat(v.f, o.f)
	case KindString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat }

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
// joins, group-by, and distinct counting. Integers and floats that hold
// the same numeric value map to the same key so that cross-kind equality
// and hashing agree.
func (v Value) Key() ValueKey {
	switch v.kind {
	case KindNull:
		return ValueKey{kind: KindNull}
	case KindInt:
		return ValueKey{kind: KindInt, num: v.i}
	case KindFloat:
		// Floats holding exact integers share the key with ints.
		if f := v.f; f == float64(int64(f)) {
			return ValueKey{kind: KindInt, num: int64(f)}
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
