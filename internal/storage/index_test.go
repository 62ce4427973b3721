package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"reopt/internal/rel"
)

// referenceDirectory is the hash directory the secondary index used to
// be, filed row by row: each non-NULL value's Key maps to its rows in heap
// order. It is the oracle of Lookup and NumDistinct.
func referenceDirectory(tab *Table, pos int) map[rel.ValueKey][]int32 {
	dir := map[rel.ValueKey][]int32{}
	col := tab.ColData().Col(pos)
	for id := range tab.NumRows() {
		if v := col.Value(id); !v.IsNull() {
			dir[v.Key()] = append(dir[v.Key()], int32(id))
		}
	}
	return dir
}

// checkIndex holds idx to the directory filed from its column: every
// probe finds the directory's ids for its key, in the same order, and
// NumDistinct is the directory's key count.
func checkIndex(t *testing.T, idx *Index, probes []rel.Value) {
	t.Helper()
	dir := referenceDirectory(idx.table, idx.colPos)
	for _, v := range probes {
		var want []int32
		if !v.IsNull() {
			want = dir[v.Key()]
		}
		if got := idx.Lookup(v); !slices.Equal(got, want) {
			t.Fatalf("%s: Lookup(%v) = %v, want %v", idx.Column(), v, got, want)
		}
	}
	if got, want := idx.NumDistinct(), len(dir); got != want {
		t.Fatalf("%s: NumDistinct %d, want %d", idx.Column(), got, want)
	}
}

// storedValues is every row of column pos, NULLs included.
func storedValues(tab *Table, pos int) []rel.Value {
	vals := make([]rel.Value, tab.NumRows())
	for id := range vals {
		vals[id] = tab.ColData().Col(pos).Value(id)
	}
	return vals
}

func TestIndexLookup(t *testing.T) {
	tab := makeTable(t, 100)
	idx, err := tab.CreateIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	ids := idx.Lookup(rel.Int(3))
	if len(ids) != 10 {
		t.Fatalf("lookup: %d ids", len(ids))
	}
	for _, id := range ids {
		if tab.Row(int(id))[0].AsInt() != 3 {
			t.Errorf("row %d has wrong key", id)
		}
	}
	if idx.Lookup(rel.Int(99)) != nil {
		t.Error("missing key should return nil")
	}
	if idx.Lookup(rel.Null) != nil {
		t.Error("NULL lookup should return nil")
	}
	if idx.NumDistinct() != 10 {
		t.Errorf("distinct: %d", idx.NumDistinct())
	}
}

func TestIndexMaintainedOnAppend(t *testing.T) {
	tab := makeTable(t, 10)
	idx, err := tab.CreateIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	tab.MustAppend(rel.Row{rel.Int(777), rel.String_("new")})
	ids := idx.Lookup(rel.Int(777))
	if len(ids) != 1 || ids[0] != 10 {
		t.Errorf("index missed appended row: %v", ids)
	}
}

// TestIndexBulkBuildMatchesInserts: the index CreateIndex builds from the
// sorted permutation answers as the directory filed row by row would —
// the same ids in heap order for every value, and the same NumDistinct —
// on an int column (radix-sorted) and a string column (comparison-
// sorted), both with NULLs.
func TestIndexBulkBuildMatchesInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := NewTable("t", rel.NewSchema(
		rel.Column{Name: "i", Kind: rel.KindInt},
		rel.Column{Name: "s", Kind: rel.KindString},
	))
	for r := 0; r < 20000; r++ {
		i, s := rel.Int(rng.Int63n(700)-350), rel.String_(fmt.Sprintf("v%03d", rng.Intn(300)))
		if rng.Intn(50) == 0 {
			i = rel.Null
		}
		if rng.Intn(50) == 0 {
			s = rel.Null
		}
		tab.MustAppend(rel.Row{i, s})
	}
	for pos, col := range []string{"i", "s"} {
		idx, err := tab.CreateIndex(col)
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(t, idx, append(storedValues(tab, pos), rel.Int(351), rel.String_("v999"), rel.String_("")))
	}
}

// TestIndexAppendIntoMiddleRun: after a bulk build, appending a row whose
// key sits in a middle run must add it to that run and leave the
// neighbouring keys' ids alone.
func TestIndexAppendIntoMiddleRun(t *testing.T) {
	tab := makeTable(t, 100) // k = i % 10: ten runs of ten
	idx, err := tab.CreateIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	before := map[int64][]int32{}
	for k := int64(0); k < 10; k++ {
		before[k] = slices.Clone(idx.Lookup(rel.Int(k)))
	}
	tab.MustAppend(rel.Row{rel.Int(4), rel.String_("new")})
	for k := int64(0); k < 10; k++ {
		want := before[k]
		if k == 4 {
			want = append(want, 100)
		}
		if got := idx.Lookup(rel.Int(k)); !slices.Equal(got, want) {
			t.Errorf("Lookup(%d) after append = %v, want %v", k, got, want)
		}
	}
}

// TestColumnRunsIsTheIndex: an indexed column's ColumnRuns is its slot's
// permutation, the one its index reads, not a second sort, and equals
// the sort an unindexed copy of the column gets; after an Append both
// are the fresh sort.
func TestColumnRunsIsTheIndex(t *testing.T) {
	tab := makeTable(t, 100)
	idx, err := tab.CreateIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		ids, runs := tab.ColumnRuns(0)
		col := tab.ColData().Col(0)
		wantIDs, wantRuns := col.sortColumn(tab.NumRows(), true)
		if &ids[0] != &col.idx.perm[0] || &runs[0] != &col.idx.runs[0] {
			t.Error("ColumnRuns on an indexed column sorted it again")
		}
		if !slices.Equal(ids, wantIDs) || !slices.Equal(runs, wantRuns) || idx.NumDistinct() != len(runs)-1 {
			t.Errorf("ColumnRuns = %v %v (index: %d distinct), want %v %v", ids, runs, idx.NumDistinct(), wantIDs, wantRuns)
		}
	}
	check()
	tab.MustAppend(rel.Row{rel.Int(42), rel.String_("new")})
	check()
	if got := tab.SecondaryIndexBytes(); got != int64(101+12)*4 {
		t.Errorf("SecondaryIndexBytes = %d, want 4 bytes for each of 101 ids and 12 run offsets", got)
	}
}

// TestCreateIndexAfterRangeLookup: an unindexed slot a range lookup
// built holds its permutation without runs (4 bytes a row), and an index
// created on the column afterwards gets a slot with runs, so Lookup and
// NumDistinct answer as the directory does.
func TestCreateIndexAfterRangeLookup(t *testing.T) {
	tab := intTable(2*indexMinRows, edgeValue)
	col := tab.ColData().Col(0)
	if _, ok := col.IndexRows(0, 10, nil, nil); !ok {
		t.Fatal("range lookup not answered")
	}
	if perm, _ := tab.IndexBytes(); col.idx.runs != nil || perm != int64(cap(col.idx.perm))*4 {
		t.Fatalf("unindexed slot: %d run offsets, %d bytes for %d id slots", len(col.idx.runs), perm, cap(col.idx.perm))
	}
	idx, err := tab.CreateIndex("v")
	if err != nil {
		t.Fatal(err)
	}
	checkIndex(t, idx, indexProbes(storedValues(tab, 0)))
	if err := pointsMatchLookup(col, idx); err != nil {
		t.Fatal(err)
	}
}

// TestStaleIndexRebuildRace: goroutines racing the first reads of an
// index an Append made stale — lookups, NumDistinct, ColumnRuns and the
// byte count — all see the one re-sort (run under -race).
func TestStaleIndexRebuildRace(t *testing.T) {
	tab := makeTable(t, 5000)
	idx, err := tab.CreateIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	tab.MustAppend(rel.Row{rel.Int(10), rel.String_("new")})
	const racers = 4
	perms := make([]*int32, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if ids := idx.Lookup(rel.Int(10)); !slices.Equal(ids, []int32{5000}) {
				t.Errorf("racer %d: Lookup(10) = %v", g, ids)
			}
			if nd := idx.NumDistinct(); nd != 11 || tab.SecondaryIndexBytes() != (5001+12)*4 {
				t.Errorf("racer %d: %d distinct, %d bytes", g, nd, tab.SecondaryIndexBytes())
			}
			ids, _ := tab.ColumnRuns(0)
			perms[g] = &ids[0]
		}()
	}
	close(start)
	wg.Wait()
	for g := range perms {
		if perms[g] != perms[0] {
			t.Fatalf("racer %d saw a different permutation: the index was sorted more than once", g)
		}
	}
}

// indexPalettes are the values FuzzIndexLookup's columns are drawn from,
// by column kind — int, float, string, and all three mixed — each with
// NULL: NaN under two payloads, ±0, ±Inf, the integers either side of
// ±2^53 and the int64 ends, as ints and as the floats nearest them.
var indexPalettes = func() [4][]rel.Value {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	ints := []rel.Value{rel.Null, rel.Int(0), rel.Int(1), rel.Int(-1),
		rel.Int(1<<53 - 1), rel.Int(1 << 53), rel.Int(1<<53 + 1),
		rel.Int(-(1<<53 - 1)), rel.Int(-(1 << 53)), rel.Int(-(1<<53 + 1)),
		rel.Int(math.MaxInt64), rel.Int(math.MaxInt64 - 1), rel.Int(math.MinInt64), rel.Int(math.MinInt64 + 1)}
	floats := []rel.Value{rel.Null, rel.Float(0), rel.Float(math.Copysign(0, -1)), rel.Float(1), rel.Float(-1), rel.Float(0.5),
		rel.Float(math.NaN()), rel.Float(nan2), rel.Float(math.Inf(1)), rel.Float(math.Inf(-1)),
		rel.Float(1 << 53), rel.Float(1<<53 + 2), rel.Float(-(1 << 53)), rel.Float(0x1p63), rel.Float(-0x1p63),
		rel.Float(math.MaxFloat64), rel.Float(math.SmallestNonzeroFloat64)}
	strs := []rel.Value{rel.Null, rel.String_(""), rel.String_("a"), rel.String_("b"), rel.String_("1"), rel.String_("NaN")}
	return [4][]rel.Value{ints, floats, strs, slices.Concat(ints, floats, strs)}
}()

// fuzzIndexValue decodes one byte into a value of palette kind: a
// palette value, or one of eight small values that repeat often.
func fuzzIndexValue(kind int, b byte) rel.Value {
	if b < 0x80 {
		p := indexPalettes[kind]
		return p[int(b)%len(p)]
	}
	small := int64(b % 8)
	if kind == 3 {
		kind = int(b>>3) % 3
	}
	switch kind {
	case 0:
		return rel.Int(small)
	case 1:
		return rel.Float(float64(small) / 2)
	default:
		return rel.String_(string(rune('a' + small)))
	}
}

// indexProbes is every value a lookup on vals should be tried with: the
// palettes, every stored value, each number's counterpart of the other
// numeric kind (a float holding an integer probes as that int and the
// ints beside it), and each value rendered as a string.
func indexProbes(vals []rel.Value) []rel.Value {
	probes := slices.Concat(indexPalettes[3], vals)
	for _, v := range vals {
		switch v.Kind() {
		case rel.KindInt:
			probes = append(probes, rel.Float(float64(v.AsInt())), rel.String_(v.String()))
		case rel.KindFloat:
			i, _ := rel.FloatInt(v.AsFloat())
			probes = append(probes, rel.Int(i), rel.Int(i+1), rel.Int(i-1), rel.String_(v.String()))
		case rel.KindString:
			probes = append(probes, rel.Int(int64(len(v.AsString()))))
		}
	}
	return probes
}

// FuzzIndexLookup builds int, float, string and mixed-kind columns from
// the input, indexes a prefix of the rows and appends the rest, and
// holds the index to the directory filed row by row before and after
// the appends, probing with every stored value and its int, float and
// string counterparts.
func FuzzIndexLookup(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0x80, 0x81, 0x80}, uint16(9))
	f.Add(byte(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0x80, 0x82, 0x82}, uint16(12))
	f.Add(byte(2), []byte{0, 1, 2, 3, 4, 5, 0x80, 0x81, 0x81, 0}, uint16(3))
	f.Add(byte(3), []byte{1, 15, 20, 30, 6, 7, 8, 0x80, 0x90, 0xa1, 32, 33, 34, 35, 36, 0}, uint16(5))
	f.Add(byte(3), []byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, kind byte, data []byte, split uint16) {
		k := int(kind % 4)
		tab := NewTable("t", rel.NewSchema(rel.Column{Name: "c", Kind: indexPalettes[k][1].Kind()}))
		cut := int(split) % (len(data) + 1)
		for _, b := range data[:cut] {
			tab.MustAppend(rel.Row{fuzzIndexValue(k, b)})
		}
		idx, err := tab.CreateIndex("c")
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(t, idx, indexProbes(storedValues(tab, 0)))
		for _, b := range data[cut:] {
			tab.MustAppend(rel.Row{fuzzIndexValue(k, b)})
		}
		checkIndex(t, idx, indexProbes(storedValues(tab, 0)))
	})
}
