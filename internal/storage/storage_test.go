package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"reopt/internal/rel"
)

func makeTable(t *testing.T, n int) *Table {
	t.Helper()
	tab := NewTable("t", rel.NewSchema(
		rel.Column{Name: "k", Kind: rel.KindInt},
		rel.Column{Name: "v", Kind: rel.KindString},
	))
	for i := 0; i < n; i++ {
		tab.MustAppend(rel.Row{rel.Int(int64(i % 10)), rel.String_("v")})
	}
	return tab
}

func TestAppendAndRowAccess(t *testing.T) {
	tab := makeTable(t, 100)
	if tab.NumRows() != 100 {
		t.Fatalf("rows: %d", tab.NumRows())
	}
	if tab.Row(17)[0].AsInt() != 7 {
		t.Errorf("row 17: %v", tab.Row(17))
	}
	if err := tab.Append(rel.Row{rel.Int(1)}); err == nil {
		t.Error("short row should be rejected")
	}
}

func TestSchemaAttribution(t *testing.T) {
	tab := makeTable(t, 1)
	for _, c := range tab.Schema().Columns {
		if c.Table != "t" {
			t.Errorf("column %s not attributed to table", c.Name)
		}
	}
}

func TestPageAccounting(t *testing.T) {
	tab := makeTable(t, 130)
	if got := tab.NumPages(); got != 3 { // 64 rows/page
		t.Errorf("pages: %d, want 3", got)
	}
	if tab.PageOfRow(0) != 0 || tab.PageOfRow(63) != 0 || tab.PageOfRow(64) != 1 {
		t.Error("page boundaries wrong")
	}
	tab.SetRowsPerPage(10)
	if got := tab.NumPages(); got != 13 {
		t.Errorf("pages after resize: %d, want 13", got)
	}
	empty := NewTable("e", rel.NewSchema(rel.Column{Name: "x", Kind: rel.KindInt}))
	if empty.NumPages() != 1 {
		t.Error("empty table should report one page")
	}
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
		if tab.Row(id)[0].AsInt() != 3 {
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

func TestDuplicateIndexRejected(t *testing.T) {
	tab := makeTable(t, 10)
	if _, err := tab.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("k"); err == nil {
		t.Error("duplicate index should error")
	}
	if _, err := tab.CreateIndex("nope"); err == nil {
		t.Error("unknown column should error")
	}
	if got := len(tab.Indexes()); got != 1 {
		t.Errorf("indexes: %d", got)
	}
}

// TestIndexBulkBuildMatchesInserts: the directory CreateIndex builds from
// the sorted permutation is the one filing every row through insert
// would build — the same ids in heap order for every value, and the same
// NumDistinct, LeafPages and Height — on an int column (radix-sorted)
// and a string column (comparison-sorted), both with NULLs.
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
		bulk, err := tab.CreateIndex(col)
		if err != nil {
			t.Fatal(err)
		}
		byRow := &Index{table: tab, column: col, colPos: pos, hash: make(map[rel.ValueKey][]int)}
		for id, row := range tab.Rows() {
			byRow.insert(row[pos], id)
		}
		for id, row := range tab.Rows() {
			v := row[pos]
			if got, want := bulk.Lookup(v), byRow.Lookup(v); !slices.Equal(got, want) {
				t.Fatalf("%s: Lookup(%v) (row %d) = %v, want %v", col, v, id, got, want)
			}
		}
		if bulk.NumDistinct() != byRow.NumDistinct() || bulk.LeafPages() != byRow.LeafPages() || bulk.Height() != byRow.Height() {
			t.Errorf("%s: distinct/leaf pages/height %d/%d/%d, want %d/%d/%d", col,
				bulk.NumDistinct(), bulk.LeafPages(), bulk.Height(),
				byRow.NumDistinct(), byRow.LeafPages(), byRow.Height())
		}
	}
}

// TestIndexAppendIntoMiddleRun: after a bulk build, appending a row whose
// key sits in a middle run of the shared id array must leave the
// neighbouring keys' ids alone — each run's sub-slice is capacity-clipped,
// so the append reallocates instead of writing into the next run.
func TestIndexAppendIntoMiddleRun(t *testing.T) {
	tab := makeTable(t, 100) // k = i % 10: ten runs of ten
	idx, err := tab.CreateIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	before := map[int64][]int{}
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

func TestSampleRatioBounds(t *testing.T) {
	tab := makeTable(t, 1000)
	s0 := tab.Sample("s0", 0, 1)
	if s0.NumRows() != 0 {
		t.Errorf("ratio 0 sample has %d rows", s0.NumRows())
	}
	s1 := tab.Sample("s1", 1, 1)
	if s1.NumRows() != 1000 {
		t.Errorf("ratio 1 sample has %d rows", s1.NumRows())
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ratio > 1")
		}
	}()
	tab.Sample("s2", 1.5, 1)
}

func TestSampleDeterministicAndUnbiased(t *testing.T) {
	tab := makeTable(t, 20000)
	a := tab.Sample("a", 0.1, 7)
	b := tab.Sample("b", 0.1, 7)
	if a.NumRows() != b.NumRows() {
		t.Error("same seed should give identical samples")
	}
	// Expected 2000 rows; allow 5 sigma (~sqrt(20000*0.1*0.9)=42).
	if a.NumRows() < 1790 || a.NumRows() > 2210 {
		t.Errorf("sample size %d implausible for ratio 0.1", a.NumRows())
	}
}

// Property: every sampled row exists in the base table with the same
// contents (samples are subsets).
func TestSampleSubsetProperty(t *testing.T) {
	tab := makeTable(t, 500)
	f := func(seed int64) bool {
		s := tab.Sample("s", 0.2, seed)
		base := map[string]int{}
		for _, r := range tab.Rows() {
			base[r.String()]++
		}
		for _, r := range s.Rows() {
			if base[r.String()] == 0 {
				return false
			}
			base[r.String()]--
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestIndexHeightAndLeafPages(t *testing.T) {
	tab := NewTable("t", rel.NewSchema(rel.Column{Name: "k", Kind: rel.KindInt}))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		tab.MustAppend(rel.Row{rel.Int(rng.Int63n(1000))})
	}
	idx, err := tab.CreateIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	if idx.LeafPages() < 100 {
		t.Errorf("leaf pages: %d", idx.LeafPages())
	}
	if h := idx.Height(); h < 2 || h > 4 {
		t.Errorf("height: %d", h)
	}
}

// TestIdentAtIsFinerThanEqualAt: representation identity (what the
// skeleton groups rows by) tells apart what EqualAt joins — the two
// zeros, two NaN payloads — never the reverse, matches NULL with NULL,
// and IdentHashAt agrees with it.
func TestIdentAtIsFinerThanEqualAt(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	c := &ColData{Kind: rel.KindFloat,
		Floats: []float64{0, math.Copysign(0, -1), math.NaN(), nan2, math.NaN(), 1.5, 1.5, 0, 0},
		Nulls:  []bool{false, false, false, false, false, false, false, true, true}}
	for i := range c.Floats {
		for j := range c.Floats {
			ident := c.IdentAt(i, j)
			if ident != (c.IdentHashAt(rel.HashSeed, i) == c.IdentHashAt(rel.HashSeed, j)) {
				t.Errorf("rows %d, %d: IdentAt %v disagrees with IdentHashAt", i, j, ident)
			}
			if ident && !c.IsNull(i) && !c.EqualAt(i, c, j) {
				t.Errorf("rows %d, %d are identical but not Equal", i, j)
			}
		}
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		if !c.EqualAt(pair[0], c, pair[1]) || c.IdentAt(pair[0], pair[1]) {
			t.Errorf("rows %v must be Equal yet not identical", pair)
		}
	}
	if !c.IdentAt(2, 4) || !c.IdentAt(5, 6) || !c.IdentAt(7, 8) || c.IdentAt(0, 7) {
		t.Error("same NaN payload, same number and NULL with NULL are identical; 0 and NULL are not")
	}
}
