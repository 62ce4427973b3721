package storage

import (
	"fmt"
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

// indexAgainstKernel asks column c's index for [lo, hi] and checks the
// answer against the scan it replaces: the index answers exactly when the
// kernel's matches are at most 1/indexMaxShare of the rows, and then with
// exactly the kernel's rows, each once, in ascending (value, row id)
// order.
func indexAgainstKernel(c *ColData, lo, hi int64) (answered bool, err error) {
	want := kernelWords(c, lo, hi)
	matches := 0
	for _, w := range want {
		matches += bits.OnesCount64(w)
	}
	rows, ok := c.IndexRows(lo, hi)
	if selective := matches*indexMaxShare <= len(c.Ints); ok != selective {
		return ok, fmt.Errorf("[%d, %d] matches %d of %d rows: answered by the index = %v", lo, hi, matches, len(c.Ints), ok)
	}
	if !ok {
		return false, nil
	}
	got := make([]uint64, len(want))
	for x, r := range rows {
		if x > 0 {
			if p := rows[x-1]; c.Ints[p] > c.Ints[r] || c.Ints[p] == c.Ints[r] && p >= r {
				return true, fmt.Errorf("[%d, %d]: row %d (%d) follows row %d (%d): not (value, row id) order", lo, hi, r, c.Ints[r], p, c.Ints[p])
			}
		}
		got[r/vec.WordBits] |= 1 << (uint(r) % vec.WordBits)
	}
	if len(rows) != matches || !slices.Equal(got, want) {
		return true, fmt.Errorf("[%d, %d]: the index's %d rows differ from the kernel's %d", lo, hi, len(rows), matches)
	}
	return true, nil
}

// TestIndexRowsMatchKernel: whenever the index answers, its rows are the
// kernel's as a set, in (value, row id) order — interior ranges, single
// values, both extremes as values and as bounds, inverted and empty ranges
// — and it declines a range matching more than 1/indexMaxShare of the
// rows, the whole column included.
func TestIndexRowsMatchKernel(t *testing.T) {
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
		ok, err := indexAgainstKernel(c, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			answered++
		} else {
			declined++
		}
	}
	if answered < 12 || declined < 3 {
		t.Fatalf("%d ranges answered, %d declined: the cases no longer cover both sides of the cut-off", answered, declined)
	}
	// At the cut-off itself: a range matching exactly half the rows is
	// answered, one matching one row more than half is not.
	parity := func(i int) rel.Value { return rel.Int(int64(i % 2)) }
	for n, want := range map[int]bool{2 * indexMinRows: true, 2*indexMinRows - 1: false} {
		c := BuildColStore(intTable(n, parity)).Col(0)
		if ok, err := indexAgainstKernel(c, 0, 0); err != nil || ok != want {
			t.Fatalf("%d rows, %d of them 0: answered %v, want %v (%v)", n, (n+1)/2, ok, want, err)
		}
	}
}

// FuzzIndexedSelection checks the index against the kernel on random
// columns of indexMinRows to 2*indexMinRows-1 rows: values base + a
// draw from [0, span] (wrapping, so any int64 range is reachable; a small
// span makes duplicates), a NULL about every nullEvery rows and an int64
// extreme about every edgeEvery (0: never), in random row order; the
// interval is [base+dlo, base+dhi], likewise wrapping.
func FuzzIndexedSelection(f *testing.F) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	f.Add(int64(1), uint16(0), int64(0), uint64(2000), uint8(7), uint8(100), int64(100), int64(120))
	f.Add(int64(2), uint16(17), int64(-50), uint64(100), uint8(0), uint8(0), int64(0), int64(100))   // everything: declined
	f.Add(int64(3), uint16(4095), int64(0), uint64(0), uint8(3), uint8(0), int64(0), int64(0))       // one value, NULLs
	f.Add(int64(4), uint16(9), int64(0), uint64(math.MaxUint64), uint8(0), uint8(2), lo, lo)         // full range, extremes
	f.Add(int64(5), uint16(300), int64(0), uint64(1000), uint8(5), uint8(9), int64(hi-1000), hi)     // up to MaxInt64
	f.Add(int64(6), uint16(1), int64(1000), uint64(500), uint8(1), uint8(0), int64(0), int64(500))   // all NULL
	f.Add(int64(7), uint16(64), int64(0), uint64(40000), uint8(0), uint8(0), int64(300), int64(200)) // inverted
	f.Fuzz(func(t *testing.T, seed int64, extra uint16, base int64, span uint64, nullEvery, edgeEvery uint8, dlo, dhi int64) {
		rng := rand.New(rand.NewSource(seed))
		n := indexMinRows + int(extra%indexMinRows)
		c := BuildColStore(intTable(n, func(int) rel.Value {
			switch {
			case nullEvery > 0 && rng.Intn(int(nullEvery)) == 0:
				return rel.Null
			case edgeEvery > 0 && rng.Intn(int(edgeEvery)) == 0:
				return rel.Int([2]int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)])
			case span == math.MaxUint64:
				return rel.Int(base + int64(rng.Uint64()))
			}
			return rel.Int(base + int64(rng.Uint64()%(span+1)))
		})).Col(0)
		if c.idx == nil {
			t.Fatalf("a %d-row int64 column must be indexed", n)
		}
		if _, err := indexAgainstKernel(c, base+dlo, base+dhi); err != nil {
			t.Fatal(err)
		}
	})
}

// TestIndexSizeCutoff: a column one row under indexMinRows never gets an
// index, one at or over it does; columns shaped by NewLike never do.
func TestIndexSizeCutoff(t *testing.T) {
	val := func(i int) rel.Value { return rel.Int(int64(i % 500)) }
	for _, n := range []int{600, indexMinRows - 1, indexMinRows, indexMinRows + 1} {
		c := BuildColStore(intTable(n, val)).Col(0)
		_, got := c.IndexRows(10, 12)
		if indexed := n >= indexMinRows; (c.idx != nil) != indexed || got != indexed {
			t.Errorf("%d rows: index slot %v, range answered %v; want both %v", n, c.idx != nil, got, indexed)
		}
		if _, err := indexAgainstKernel(c, 10, 12); got && err != nil {
			t.Errorf("%d rows: %v", n, err)
		}
		like := c.NewLike(n)
		if _, ok := like.IndexRows(10, 12); like.idx != nil || ok {
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
	const racers = 4
	perms := make([]*int32, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if ok, err := indexAgainstKernel(c, 100, 120); !ok || err != nil {
				t.Errorf("racer %d: answered %v: %v", g, ok, err)
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
