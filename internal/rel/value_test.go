package rel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 {
		t.Errorf("Int: %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("Float: %v", v)
	}
	if v := String_("x"); v.Kind() != KindString || v.AsString() != "x" {
		t.Errorf("String: %v", v)
	}
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Error("Null is wrong")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value must be NULL")
	}
}

func TestAsIntPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	String_("x").AsInt()
}

func TestAsFloatWidensInt(t *testing.T) {
	if Int(3).AsFloat() != 3.0 {
		t.Error("AsFloat should widen integers")
	}
}

func TestEqualSemantics(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Float(1.0), true}, // cross-kind numeric equality
		{Float(1.5), Float(1.5), true},
		{String_("a"), String_("a"), true},
		{String_("a"), String_("b"), false},
		{Null, Null, false}, // NULL = NULL is false
		{Null, Int(0), false},
		{Int(0), Null, false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v = %v: got %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareTotalOrder(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{String_("a"), String_("b"), -1},
		{Null, Int(math.MinInt64), -1}, // NULL sorts first
		{Int(math.MinInt64), Null, 1},
		{Null, Null, 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: Compare is antisymmetric and Equal agrees with Compare==0
// for non-null values.
func TestCompareProperties(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		if va.Compare(vb) != -vb.Compare(va) {
			return false
		}
		return va.Equal(vb) == (va.Compare(vb) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Key agrees with Equal — equal values share keys, and for
// int-valued floats the key collapses to the int key. Bounded to the
// float64-exact integer range (|a| < 2^53), where cross-kind numeric
// equality is well defined.
func TestKeyConsistentWithEqual(t *testing.T) {
	f := func(raw int64) bool {
		a := raw % (1 << 53)
		sameKey := Int(a).Key() == Float(float64(a)).Key()
		return sameKey == Int(a).Equal(Float(float64(a)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if Int(1).Key() == Int(2).Key() {
		t.Error("distinct ints share a key")
	}
	if String_("1").Key() == Int(1).Key() {
		t.Error("string and int should not share keys")
	}
	if !Null.Key().IsNull() {
		t.Error("null key should report IsNull")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL": Null,
		"42":   Int(42),
		"2.5":  Float(2.5),
		`"hi"`: String_("hi"),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindInt.String() != "BIGINT" || KindNull.String() != "NULL" {
		t.Error("kind names wrong")
	}
}

func TestFloatIntKeyBoundary(t *testing.T) {
	// A non-integral float must not collide with any int key.
	if Float(1.5).Key() == Int(1).Key() || Float(1.5).Key() == Int(2).Key() {
		t.Error("fractional float collides with int key")
	}
}

// TestNaNIsOrderedAndHashed: one rule for NaN (PostgreSQL's) — it equals
// NaN whatever the payload, nothing else, and sorts after every number —
// so Equal is an equivalence, Compare an order, and Hash64 / Key agree
// with Equal on it. -0.0 still equals 0.0.
func TestNaNIsOrderedAndHashed(t *testing.T) {
	nan, nan2 := Float(math.NaN()), Float(math.Float64frombits(math.Float64bits(math.NaN())^1))
	if !nan.Equal(nan2) || nan.Compare(nan2) != 0 || nan.Hash64(HashSeed) != nan2.Hash64(HashSeed) || nan.Key() != nan2.Key() {
		t.Error("two NaN payloads must be equal, hash alike and share a key")
	}
	for _, v := range []Value{Float(1.5), Float(math.Inf(1)), Float(math.Inf(-1)), Int(7), Int(math.MaxInt64)} {
		if nan.Equal(v) || v.Equal(nan) {
			t.Errorf("NaN must not equal %v", v)
		}
		if nan.Compare(v) != 1 || v.Compare(nan) != -1 {
			t.Errorf("NaN must sort after %v: %d / %d", v, nan.Compare(v), v.Compare(nan))
		}
	}
	if z, nz := Float(0), Float(math.Copysign(0, -1)); !z.Equal(nz) || z.Hash64(HashSeed) != nz.Hash64(HashSeed) {
		t.Error("-0.0 must equal 0.0 and hash alike")
	}
}
