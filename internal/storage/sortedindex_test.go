package storage

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"reopt/internal/rel"
	"reopt/internal/vec"
)

// edgeValue spreads duplicates, negatives and both int64 extremes over a
// column; every seventh row is NULL.
func edgeValue(i int) rel.Value {
	switch {
	case i%7 == 3:
		return rel.Null
	case i%101 == 0:
		return rel.Int(math.MinInt64)
	case i%103 == 0:
		return rel.Int(math.MaxInt64)
	case i%5 == 0:
		return rel.Int(-int64(i % 50))
	default:
		return rel.Int(int64(i*7919) % 2000)
	}
}

// intTable is an n-row table with one int column v, row i holding val(i).
func intTable(n int, val func(i int) rel.Value) *Table {
	tab := NewTable("t", rel.NewSchema(rel.Column{Name: "v", Kind: rel.KindInt}))
	for i := 0; i < n; i++ {
		tab.MustAppend(rel.Row{val(i)})
	}
	return tab
}

// kernelWords is the scan the index replaces: the range kernel, then the
// NULL mask.
func kernelWords(c *ColData, lo, hi int64) []uint64 {
	bm := vec.NewBitmap(len(c.Ints))
	vec.Int64Range(bm, c.Ints, lo, hi, 0, len(c.Ints))
	vec.AndNotNulls(bm, c.NullWords, 0, len(c.Ints))
	return bm.Words()
}

// TestSortedPermOrder: the radix build returns exactly the non-NULL rows,
// in ascending (value, row id) order, on duplicates, negatives, both
// extremes, a constant column and an all-NULL one.
func TestSortedPermOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string]func(i int) rel.Value{
		"edge values": edgeValue,
		"full range":  func(int) rel.Value { return rel.Int(int64(rng.Uint64())) },
		"constant":    func(int) rel.Value { return rel.Int(42) },
		"all NULL":    func(int) rel.Value { return rel.Null },
	}
	for name, val := range cases {
		c := BuildColStore(intTable(5000, val)).Col(0)
		var want []int32
		for i := range c.Ints {
			if !c.IsNull(i) {
				want = append(want, int32(i))
			}
		}
		sort.SliceStable(want, func(a, b int) bool { return c.Ints[want[a]] < c.Ints[want[b]] })
		got := sortedPerm(c.Ints, c.Nulls)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows in the permutation, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: position %d holds row %d, want row %d", name, i, got[i], want[i])
			}
		}
	}
}

// TestIndexRangeMatchesKernel: whenever the index answers, its bitmap is
// the kernel's bit for bit — interior ranges, single values, both
// extremes as values and as bounds, inverted and empty ranges — and it
// declines (nil) a range matching more than 1/indexMaxShare of the rows,
// the whole column included.
func TestIndexRangeMatchesKernel(t *testing.T) {
	const n = 3*indexMinRows + 17 // a ragged last word
	c := BuildColStore(intTable(n, edgeValue)).Col(0)
	if c.idx == nil || c.Nulls == nil {
		t.Fatal("the test column must be indexed and carry NULLs")
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	ranges := [][2]int64{
		{100, 120}, {0, 0}, {-49, -1}, {1999, 5000}, {-3, 3},
		{lo, lo}, {hi, hi}, {lo, -40}, {1990, hi}, {lo + 1, -45}, {1995, hi - 1},
		{120, 100}, {hi, lo}, {2000, 9000}, {-1000, -50}, // inverted, empty
		{lo, hi}, {0, hi}, {lo, 1500}, // too many matches: declined
	}
	answered, declined := 0, 0
	for _, r := range ranges {
		want := kernelWords(c, r[0], r[1])
		matches := 0
		for _, w := range want {
			matches += bits.OnesCount64(w)
		}
		got := c.IndexRange(r[0], r[1])
		if selective := matches*indexMaxShare <= n; (got != nil) != selective {
			t.Fatalf("[%d, %d] matches %d of %d rows: answered by the index = %v", r[0], r[1], matches, n, got != nil)
		}
		if got == nil {
			declined++
			continue
		}
		answered++
		if !slices.Equal(got, want) {
			t.Errorf("[%d, %d]: index bitmap differs from the kernel's (%d matches)", r[0], r[1], matches)
		}
	}
	if answered < 12 || declined < 3 {
		t.Fatalf("%d ranges answered, %d declined: the cases no longer cover both sides of the cut-off", answered, declined)
	}
}

// TestIndexSizeCutoff: a column one row under indexMinRows never gets an
// index, one at or over it does; columns shaped by NewLike never do.
func TestIndexSizeCutoff(t *testing.T) {
	val := func(i int) rel.Value { return rel.Int(int64(i % 500)) }
	for _, n := range []int{600, indexMinRows - 1, indexMinRows, indexMinRows + 1} {
		c := BuildColStore(intTable(n, val)).Col(0)
		got := c.IndexRange(10, 12)
		if indexed := n >= indexMinRows; (c.idx != nil) != indexed || (got != nil) != indexed {
			t.Errorf("%d rows: index slot %v, range answered %v; want both %v", n, c.idx != nil, got != nil, indexed)
		}
		if got != nil && !slices.Equal(got, kernelWords(c, 10, 12)) {
			t.Errorf("%d rows: index bitmap differs from the kernel's", n)
		}
		if like := c.NewLike(n); like.idx != nil || like.IndexRange(10, 12) != nil {
			t.Errorf("%d rows: a NewLike column must not be indexed", n)
		}
	}
	// Only int64 columns are indexed.
	floats := intTable(indexMinRows, func(i int) rel.Value { return rel.Float(float64(i)) })
	if c := BuildColStore(floats).Col(0); c.idx != nil {
		t.Error("a float column must not be indexed")
	}
}

// TestIndexLazyBuildRace: goroutines racing the first lookup all read one
// permutation — the build ran once (run under -race).
func TestIndexLazyBuildRace(t *testing.T) {
	c := BuildColStore(intTable(2*indexMinRows, edgeValue)).Col(0)
	if c.idx.perm != nil {
		t.Fatal("the index must not be built before its first use")
	}
	want := kernelWords(c, 100, 120)
	const racers = 4
	perms := make([]*int32, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if got := c.IndexRange(100, 120); !slices.Equal(got, want) {
				t.Errorf("racer %d: index bitmap differs from the kernel's", g)
			}
			perms[g] = &c.idx.perm[0]
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range perms {
		if perms[g] != perms[0] {
			t.Fatalf("racer %d saw a different permutation: the index was built more than once", g)
		}
	}
}
