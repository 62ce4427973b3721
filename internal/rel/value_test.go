package rel

import (
	"math"
	"strings"
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

// orderEdges are the values at which an int-vs-float comparison can go
// wrong: both ends of int64, the integers on either side of ±2^53 (the
// first a float64 cannot hold), ±2^63 (one past the int64 range), the
// floats next to them, signed zeros, infinities, NaN and NULL.
func orderEdges() []Value {
	vals := []Value{Null, String_(""), String_("a")}
	for _, i := range []int64{math.MinInt64, math.MinInt64 + 1, -1<<53 - 1, -1 << 53, -1<<53 + 1,
		-1, 0, 1, 1<<53 - 1, 1 << 53, 1<<53 + 1, math.MaxInt64 - 1, math.MaxInt64} {
		vals = append(vals, Int(i), Float(float64(i)))
	}
	for _, f := range []float64{-0x1p63, 0x1p63, math.Nextafter(0x1p63, 0), math.Nextafter(-0x1p63, math.Inf(-1)),
		math.Copysign(0, -1), 0.5, -0.5, 0x1p53 + 2, -0x1p53 - 2, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64} {
		vals = append(vals, Float(f))
	}
	return vals
}

// checkOrder checks Compare and Equal on a, b and c: Compare is
// antisymmetric and transitive, and two non-NULL values are Equal exactly
// when Compare calls them tied and exactly when they share a Key and hash
// alike.
func checkOrder(t *testing.T, a, b, c Value) {
	t.Helper()
	ab, bc, ac := a.Compare(b), b.Compare(c), a.Compare(c)
	if ab != -b.Compare(a) {
		t.Fatalf("Compare(%v, %v) = %d, Compare(%v, %v) = %d", a, b, ab, b, a, b.Compare(a))
	}
	if ab <= 0 && bc <= 0 && ac > 0 || ab >= 0 && bc >= 0 && ac < 0 || ab == 0 && bc == 0 && ac != 0 {
		t.Fatalf("Compare not transitive over %v, %v, %v: %d, %d, %d", a, b, c, ab, bc, ac)
	}
	if a.IsNull() || b.IsNull() {
		if a.Equal(b) || (a.Key() == b.Key()) != (a.IsNull() && b.IsNull()) {
			t.Fatalf("NULL: %v = %v is %v, keys shared %v", a, b, a.Equal(b), a.Key() == b.Key())
		}
		return
	}
	eq := a.Equal(b)
	if eq != (ab == 0) || eq != (a.Key() == b.Key()) || eq && a.Hash64(HashSeed) != b.Hash64(HashSeed) {
		t.Fatalf("%v = %v is %v, Compare %d, keys shared %v", a, b, eq, ab, a.Key() == b.Key())
	}
}

// TestCompareProperties: checkOrder over every pair and triple of the
// edge values, ints and floats mixed, and over random ints and floats.
func TestCompareProperties(t *testing.T) {
	edges := orderEdges()
	for _, a := range edges {
		for _, b := range edges {
			for _, c := range edges {
				checkOrder(t, a, b, c)
			}
		}
	}
	f := func(i, j int64, bits uint64) bool {
		checkOrder(t, Int(i), Int(j), Float(math.Float64frombits(bits)))
		checkOrder(t, Int(i), Float(float64(i)), Float(float64(j)))
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Int(1<<53 + 1).Equal(Float(1 << 53)) {
		t.Error("2^53+1 equals the float 2^53")
	}
}

// FuzzNumericOrder: checkOrder over three values, each made from a kind
// and an int64 and a float64 bit pattern.
func FuzzNumericOrder(f *testing.F) {
	edges := orderEdges()
	for i := range edges {
		a, b := fuzzArgs(edges[i]), fuzzArgs(edges[(i*7+3)%len(edges)])
		c := fuzzArgs(edges[(i*11+5)%len(edges)])
		f.Add(a.k, a.i, a.f, b.k, b.i, b.f, c.k, c.i, c.f)
	}
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa uint64, kb uint8, ib int64, fb uint64, kc uint8, ic int64, fc uint64) {
		checkOrder(t, fuzzValue(ka, ia, fa), fuzzValue(kb, ib, fb), fuzzValue(kc, ic, fc))
	})
}

type fuzzTriple struct {
	k uint8
	i int64
	f uint64
}

// fuzzValue is the value a (kind, int64, float64 bits) triple names.
func fuzzValue(k uint8, i int64, f uint64) Value {
	switch Kind(k % 4) {
	case KindInt:
		return Int(i)
	case KindFloat:
		return Float(math.Float64frombits(f))
	case KindString:
		return String_(strings.Repeat("a", int(uint64(i)%3)))
	}
	return Null
}

// fuzzArgs is the triple fuzzValue turns back into v.
func fuzzArgs(v Value) fuzzTriple {
	switch v.Kind() {
	case KindInt:
		return fuzzTriple{k: uint8(KindInt), i: v.AsInt()}
	case KindFloat:
		return fuzzTriple{k: uint8(KindFloat), f: math.Float64bits(v.AsFloat())}
	case KindString:
		return fuzzTriple{k: uint8(KindString), i: int64(len(v.AsString()))}
	}
	return fuzzTriple{}
}

// Property: Key agrees with Equal — equal values share keys, and a float
// holding an integer takes the integer's key — over the whole int64
// range, where past ±2^53 float64(a) is often another integer.
func TestKeyConsistentWithEqual(t *testing.T) {
	f := func(a int64) bool {
		sameKey := Int(a).Key() == Float(float64(a)).Key()
		return sameKey == Int(a).Equal(Float(float64(a))) && sameKey == (Int(a).Compare(Float(float64(a))) == 0)
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

// TestFloatIntKeyBoundary: a non-integral float collides with no int key,
// and at the ends of int64 a float keys and hashes as an int only when it
// holds that int — the same on every platform, although Go leaves
// int64(0x1p63) to the hardware.
func TestFloatIntKeyBoundary(t *testing.T) {
	if Float(1.5).Key() == Int(1).Key() || Float(1.5).Key() == Int(2).Key() {
		t.Error("fractional float collides with int key")
	}
	for _, f := range []float64{-0x1p63, 0x1p63, math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, i := range []int64{math.MinInt64, math.MaxInt64} {
			want := f == -0x1p63 && i == math.MinInt64
			if got := Float(f).Key() == Int(i).Key(); got != want {
				t.Errorf("Float(%v) shares Int(%d)'s key: %v, want %v", f, i, got, want)
			}
			if got := Float(f).Hash64(HashSeed) == Int(i).Hash64(HashSeed); got != want {
				t.Errorf("Float(%v) hashes as Int(%d): %v, want %v", f, i, got, want)
			}
		}
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
