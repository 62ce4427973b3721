package rel

import (
	"testing"
	"testing/quick"
)

// Hashing must agree with predicate equality: Equal values hash alike,
// so hash buckets only ever need an Equal check to reject collisions —
// over the whole int64 range, where past ±2^53 float64(i) is often
// another integer, which must hash apart.
func TestHashAgreesWithEqual(t *testing.T) {
	f := func(i int64) bool {
		a, b := Int(i), Float(float64(i))
		exact := float64(i) != 0x1p63 && int64(float64(i)) == i
		return a.Equal(b) == exact && (a.Hash64(HashSeed) == b.Hash64(HashSeed)) == exact
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashSeparatesKindsAndValues(t *testing.T) {
	vals := []Value{
		Int(0), Int(1), Int(-1), Float(0.5), Float(-0.5),
		String_(""), String_("0"), String_("a"), Null,
	}
	for i, a := range vals {
		for j, b := range vals {
			ha, hb := a.Hash64(HashSeed), b.Hash64(HashSeed)
			if i == j && ha != hb {
				t.Errorf("%v: hash not deterministic", a)
			}
			if i != j && ha == hb {
				t.Errorf("%v and %v collide structurally", a, b)
			}
		}
	}
}

// Multi-column hashing is order- and boundary-sensitive: ("ab","") and
// ("a","b") must not produce the same key hash.
func TestHashRowBoundaries(t *testing.T) {
	a := Row{String_("ab"), String_("")}
	b := Row{String_("a"), String_("b")}
	if HashRow(a, []int{0, 1}) == HashRow(b, []int{0, 1}) {
		t.Error("column boundaries not separated in row hash")
	}
	c := Row{Int(1), Int(2)}
	d := Row{Int(2), Int(1)}
	if HashRow(c, []int{0, 1}) == HashRow(d, []int{0, 1}) {
		t.Error("column order not reflected in row hash")
	}
}

func TestTypedHashHelpersMatchValueHash(t *testing.T) {
	if HashInt64(HashSeed, 42) != Int(42).Hash64(HashSeed) {
		t.Error("HashInt64 disagrees with Value.Hash64")
	}
	if HashFloat64(HashSeed, 2.5) != Float(2.5).Hash64(HashSeed) {
		t.Error("HashFloat64 disagrees with Value.Hash64")
	}
	if HashFloat64(HashSeed, 7) != Int(7).Hash64(HashSeed) {
		t.Error("integral float must hash as its integer")
	}
	if HashString(HashSeed, "xyz") != String_("xyz").Hash64(HashSeed) {
		t.Error("HashString disagrees with Value.Hash64")
	}
}
