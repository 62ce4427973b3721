package storage

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

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
// in ascending (value, row id) order, cut into runs of equal values in a
// slice of exact capacity, on duplicates, negatives, both extremes, a
// constant column and an all-NULL one.
func TestSortedPermOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string]func(i int) rel.Value{
		"edge values": edgeValue,
		"full range":  func(int) rel.Value { return rel.Int(int64(rng.Uint64())) },
		"constant":    func(int) rel.Value { return rel.Int(42) },
		"all NULL":    func(int) rel.Value { return rel.Null },
	}
	for name, val := range cases {
		c := intTable(5000, val).ColData().Col(0)
		var want []int32
		for i := range c.Ints {
			if !c.IsNull(i) {
				want = append(want, int32(i))
			}
		}
		sort.SliceStable(want, func(a, b int) bool { return c.Ints[want[a]] < c.Ints[want[b]] })
		got, runs := sortedPerm(c.Ints, c.Nulls, true)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows in the permutation, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: position %d holds row %d, want row %d", name, i, got[i], want[i])
			}
		}
		wantRuns := []int32{0}
		for x := 1; x <= len(want); x++ {
			if x == len(want) || c.Ints[want[x-1]] != c.Ints[want[x]] {
				wantRuns = append(wantRuns, int32(x))
			}
		}
		if !slices.Equal(runs, wantRuns) || cap(runs) != len(runs) {
			t.Fatalf("%s: runs %v (capacity %d), want %v", name, runs, cap(runs), wantRuns)
		}
	}
}

// boundaryTable is intTable's column v beside three columns a scan may
// carry as boundary columns, one of each kind the ordered copies must
// reproduce byte for byte: n int64 with NULLs, f float64 with two NaN
// payloads, ±0, an infinity and NULLs, and s string.
func boundaryTable(n int, val func(i int) rel.Value) *Table {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	floats := []float64{math.NaN(), nan2, 0, math.Copysign(0, -1), 1.5, math.Inf(-1)}
	tab := NewTable("t", rel.NewSchema(
		rel.Column{Name: "v", Kind: rel.KindInt}, rel.Column{Name: "n", Kind: rel.KindInt},
		rel.Column{Name: "f", Kind: rel.KindFloat}, rel.Column{Name: "s", Kind: rel.KindString}))
	for i := 0; i < n; i++ {
		nv, fv := rel.Int(int64(i%40-20)), rel.Float(floats[i%len(floats)])
		if i%9 == 4 {
			nv = rel.Null
		}
		if i%11 == 5 {
			fv = rel.Null
		}
		tab.MustAppend(rel.Row{val(i), nv, fv, rel.String_(fmt.Sprint("s", i%17))})
	}
	return tab
}

// sameBytes reports whether two columns hold the same kind, length and
// bytes: floats by bit pattern, NULL markings alike.
func sameBytes(a, b *ColData) bool {
	fbits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	return a.Kind == b.Kind && slices.Equal(a.Ints, b.Ints) && slices.Equal(fbits(a.Floats), fbits(b.Floats)) &&
		slices.Equal(a.Strs, b.Strs) && slices.Equal(a.Nulls, b.Nulls)
}

// indexAgainstKernel asks column 0 of cs for [lo, hi] and checks the
// answer against the scan it replaces: the index answers exactly when the
// kernel's matches are at most 1/indexMaxShare of the rows, and then with
// exactly the kernel's rows, each once, in ascending (value, row id)
// order. The lookup asks for the run of every column of cs, column 0
// included; each must be, byte for byte, the column gathered at the rows.
func indexAgainstKernel(cs *ColStore, lo, hi int64) (answered bool, err error) {
	c := cs.Col(0)
	want := kernelWords(c, lo, hi)
	matches := 0
	for _, w := range want {
		matches += bits.OnesCount64(w)
	}
	with := make([]int, len(cs.cols))
	for k := range with {
		with[k] = len(with) - 1 - k
	}
	runs := make([]ColData, len(with))
	rows, ok := c.IndexRows(lo, hi, with, runs)
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
	for k, pos := range with {
		src := cs.Col(pos)
		gathered := src.NewLike(len(rows))
		gathered.Gather(src, rows)
		if !sameBytes(&runs[k], &gathered) {
			return true, fmt.Errorf("[%d, %d]: column %d's run differs from the column gathered at the index's rows", lo, hi, pos)
		}
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
	cs := boundaryTable(n, edgeValue).ColData()
	c := cs.Col(0)
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
		ok, err := indexAgainstKernel(cs, r[0], r[1])
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
		cs := intTable(n, parity).ColData()
		if ok, err := indexAgainstKernel(cs, 0, 0); err != nil || ok != want {
			t.Fatalf("%d rows, %d of them 0: answered %v, want %v (%v)", n, (n+1)/2, ok, want, err)
		}
	}
}

// FuzzIndexedSelection checks the index against the kernel on random
// columns of indexMinRows to 2*indexMinRows-1 rows: values base + a
// draw from [0, span] (wrapping, so any int64 range is reachable; a small
// span makes duplicates), a NULL about every nullEvery rows and an int64
// extreme about every edgeEvery (0: never), in random row order; the
// interval is [base+dlo, base+dhi], likewise wrapping. The column sits in
// boundaryTable's store, so every answer also checks the ordered copies
// of an int column with NULLs, a float column with NaN payloads and ±0
// and a string column. Then, with a secondary index on the
// column, every point range is held to the index's Lookup.
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
		tab := boundaryTable(n, func(int) rel.Value {
			switch {
			case nullEvery > 0 && rng.Intn(int(nullEvery)) == 0:
				return rel.Null
			case edgeEvery > 0 && rng.Intn(int(edgeEvery)) == 0:
				return rel.Int([2]int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)])
			case span == math.MaxUint64:
				return rel.Int(base + int64(rng.Uint64()))
			}
			return rel.Int(base + int64(rng.Uint64()%(span+1)))
		})
		cs := tab.ColData()
		if cs.Col(0).idx == nil {
			t.Fatalf("a %d-row int64 column must be indexed", n)
		}
		if _, err := indexAgainstKernel(cs, base+dlo, base+dhi); err != nil {
			t.Fatal(err)
		}
		// An index pass equals a point lookup: with a secondary index on
		// the column, IndexRows(v, v) answers exactly when Lookup(v) holds
		// at most 1/indexMaxShare of the rows, with Lookup's rows in its
		// order, for every stored value and the interval's ends.
		idx, err := tab.CreateIndex("v")
		if err != nil {
			t.Fatal(err)
		}
		if err := pointsMatchLookup(cs.Col(0), idx, base+dlo, base+dhi); err != nil {
			t.Fatal(err)
		}
	})
}

// pointsMatchLookup holds the column's IndexRows(v, v) to idx.Lookup(v)
// for every distinct value the column stores and for extra.
func pointsMatchLookup(c *ColData, idx *Index, extra ...int64) error {
	seen := map[int64]bool{}
	for i, v := range slices.Concat(c.Ints, extra) {
		if seen[v] || i < len(c.Ints) && c.IsNull(i) {
			continue
		}
		seen[v] = true
		want := idx.Lookup(rel.Int(v))
		rows, ok := c.IndexRows(v, v, nil, nil)
		if ok != (len(want)*indexMaxShare <= len(c.Ints)) || ok && !slices.Equal(rows, want) {
			return fmt.Errorf("value %d: IndexRows = %v (answered %v), Lookup = %v", v, rows, ok, want)
		}
	}
	return nil
}

// TestIndexSizeCutoff: a column one row under indexMinRows never gets an
// index, one at or over it does; columns shaped by NewLike never do.
func TestIndexSizeCutoff(t *testing.T) {
	val := func(i int) rel.Value { return rel.Int(int64(i % 500)) }
	for _, n := range []int{600, indexMinRows - 1, indexMinRows, indexMinRows + 1} {
		cs := intTable(n, val).ColData()
		c := cs.Col(0)
		_, got := c.IndexRows(10, 12, nil, nil)
		if indexed := n >= indexMinRows; (c.idx != nil) != indexed || got != indexed {
			t.Errorf("%d rows: index slot %v, range answered %v; want both %v", n, c.idx != nil, got, indexed)
		}
		if _, err := indexAgainstKernel(cs, 10, 12); got && err != nil {
			t.Errorf("%d rows: %v", n, err)
		}
		like := c.NewLike(n)
		if _, ok := like.IndexRows(10, 12, nil, nil); like.idx != nil || ok {
			t.Errorf("%d rows: a NewLike column must not be indexed", n)
		}
	}
	// Only int64 columns are indexed.
	floats := NewTable("f", rel.NewSchema(rel.Column{Name: "v", Kind: rel.KindFloat}))
	for i := range indexMinRows {
		floats.MustAppend(rel.Row{rel.Float(float64(i))})
	}
	if c := floats.ColData().Col(0); c.idx != nil {
		t.Error("a float column must not be indexed")
	}
}

// TestIndexLazyBuildRace: goroutines racing the first lookup all read one
// permutation — the build ran once (run under -race).
func TestIndexLazyBuildRace(t *testing.T) {
	cs := intTable(2*indexMinRows, edgeValue).ColData()
	c := cs.Col(0)
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
			if ok, err := indexAgainstKernel(cs, 100, 120); !ok || err != nil {
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

// TestOrderedCopyLazyBuildRace: goroutines racing the first lookup that
// asks for one column's ordered copy, over an index already built, all
// read one copy — it was gathered once — and each run is the column at
// the answered rows (run under -race).
func TestOrderedCopyLazyBuildRace(t *testing.T) {
	cs := boundaryTable(2*indexMinRows, edgeValue).ColData()
	c := cs.Col(0)
	if _, ok := c.IndexRows(100, 120, nil, nil); !ok {
		t.Fatal("the index must answer [100, 120]")
	}
	if c.idx.perm == nil || c.idx.copies[2].col.Floats != nil {
		t.Fatal("a lookup asking for no column must build the permutation and no copy")
	}
	const racers = 4
	copies := make([]*float64, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			runs := make([]ColData, 1)
			rows, ok := c.IndexRows(100, 120, []int{2}, runs)
			if !ok || len(rows) == 0 {
				t.Errorf("racer %d: answered %v with %d rows", g, ok, len(rows))
				return
			}
			gathered := cs.Col(2).NewLike(len(rows))
			gathered.Gather(cs.Col(2), rows)
			if !sameBytes(&runs[0], &gathered) {
				t.Errorf("racer %d: the run differs from the column gathered at the rows", g)
			}
			copies[g] = &c.idx.copies[2].col.Floats[0]
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range copies {
		if copies[g] != copies[0] {
			t.Fatalf("racer %d saw a different copy: it was gathered more than once", g)
		}
	}
	for pos := range c.idx.copies {
		cp := &c.idx.copies[pos].col
		if built := cp.Ints != nil || cp.Floats != nil || cp.Strs != nil; built != (pos == 2) {
			t.Errorf("column %d's copy built = %v: only the column asked for may have one", pos, built)
		}
	}
}

// heapRows is the column's rows holding v, in row order: what a point
// lookup on it must return.
func heapRows(c *ColData, v int64) []int32 {
	var ids []int32
	for i, x := range c.Ints {
		if x == v && !c.IsNull(i) {
			ids = append(ids, int32(i))
		}
	}
	return ids
}

// TestFullRatioSampleSharesPermutation: a full-ratio sample of a table
// whose int64 column has its secondary index built reads that index's
// permutation — the same array — instead of sorting again, and answers
// every point range, stored values and absent ones, as the index's
// Lookup does, in order. Appends to the table reach neither that
// sample's answers nor its permutation, while the table's Lookup sees
// the new rows. A sample drawn before the index exists, or while an
// Append has left it unbuilt, sorts its own.
func TestFullRatioSampleSharesPermutation(t *testing.T) {
	const n = indexMinRows + 500
	tab := intTable(n, edgeValue) // duplicates, NULLs, both int64 ends
	early := tab.Sample("early", 1, 1)
	tab.MustAppend(rel.Row{rel.Int(7)}) // a row early never holds
	idx, err := tab.CreateIndex("v")
	if err != nil {
		t.Fatal(err)
	}
	full := tab.Sample("full", 1, 1)
	absent := []int64{2000, -1000, 123456, math.MinInt64 + 1, math.MaxInt64 - 1}
	if err := pointsMatchLookup(full.ColData().Col(0), idx, absent...); err != nil {
		t.Fatalf("full sample: %v", err)
	}
	perm := func(s *Table) *int32 { return unsafe.SliceData(s.ColData().Col(0).idx.perm) }
	if perm(full) != perm(tab) {
		t.Fatal("the full-ratio sample sorted its column again instead of reading its table's permutation")
	}
	if p, _ := full.IndexBytes(); p != 0 {
		t.Errorf("the full-ratio sample counts %d permutation bytes; the table holds them", p)
	}
	// answers records every point answer of s, each checked against the
	// rows s itself holds.
	answers := func(s *Table) map[int64][]int32 {
		t.Helper()
		c, got := s.ColData().Col(0), map[int64][]int32{}
		for _, v := range slices.Concat(c.Ints, absent, []int64{7, 4321}) {
			if _, done := got[v]; done {
				continue
			}
			rows, ok := c.IndexRows(v, v, nil, nil)
			if want := heapRows(c, v); !ok || !slices.Equal(rows, want) {
				t.Fatalf("%s: IndexRows(%d, %d) = %v (answered %v), want %v", s.Name(), v, v, rows, ok, want)
			}
			got[v] = rows
		}
		return got
	}
	fullBefore, earlyBefore := answers(full), answers(early)
	if perm(early) == perm(tab) {
		t.Fatal("a sample drawn before the index was built reads the table's permutation")
	}

	for _, v := range []rel.Value{rel.Int(7), rel.Int(4321), rel.Null, rel.Int(math.MinInt64)} {
		tab.MustAppend(rel.Row{v})
	}
	late := tab.Sample("late", 1, 1) // the index is unbuilt again
	if got := idx.Lookup(rel.Int(4321)); !slices.Equal(got, []int32{n + 2}) {
		t.Fatalf("the table's Lookup(4321) after the appends = %v, want [%d]", got, n+2)
	}
	if got := idx.Lookup(rel.Int(7)); !slices.Equal(got, heapRows(tab.ColData().Col(0), 7)) || got[len(got)-1] != n+1 {
		t.Fatalf("the table's Lookup(7) after the appends = %v", got)
	}
	for name, s := range map[string]*Table{"full": full, "early": early} {
		want := map[string]map[int64][]int32{"full": fullBefore, "early": earlyBefore}[name]
		if got := answers(s); !maps.EqualFunc(got, want, slices.Equal) {
			t.Errorf("%s: the appends to its table changed its answers", name)
		}
	}
	answers(late)
	if perm(late) == perm(tab) || perm(late) == perm(full) {
		t.Error("a sample drawn while the table's permutation was stale reads another's")
	}
}
