package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"reopt/internal/rel"
	"reopt/internal/vec"
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
	if tab.NumRows() != 100 {
		t.Errorf("a rejected row changed the row count to %d", tab.NumRows())
	}

	// Round trip: after any prefix of roundTripRows, every column is
	// exactly referenceColumn's projection of the rows appended — same
	// kind, typed payload, NULL marking and NullWords — each row reads
	// back by representation, and only int64 columns of at least
	// indexMinRows rows hold a sorted index slot.
	rows := roundTripRows(6000)
	tab = roundTripTable("t")
	checkAt := map[int]bool{0: true, 1: true, 64: true, 65: true, indexMinRows: true, 4500: true, 4501: true, 5000: true, 5001: true, 6000: true}
	for k := 0; k <= len(rows); k++ {
		if k > 0 {
			tab.MustAppend(rows[k-1])
		}
		if !checkAt[k] {
			continue
		}
		cs := tab.ColData()
		for pos := range tab.Schema().Columns {
			got, want := cs.Col(pos), referenceColumn(rows[:k], pos)
			if !sameBytes(got, &want) {
				t.Fatalf("%d rows, column %d: kind %v (mixed %v, nulls %v), want kind %v (mixed %v, nulls %v) or other payload",
					k, pos, got.Kind, got.Vals != nil, got.Nulls != nil, want.Kind, want.Vals != nil, want.Nulls != nil)
			}
			if !slices.Equal(got.NullWords, nullWords(want.Nulls)) {
				t.Fatalf("%d rows, column %d: NullWords differ from the NULL marking", k, pos)
			}
			if indexed := got.Kind == rel.KindInt && k >= indexMinRows; (got.idx != nil) != indexed {
				t.Fatalf("%d rows, column %d: index slot %v, want %v", k, pos, got.idx != nil, indexed)
			}
		}
		for i := 0; i < k; i++ {
			for pos, v := range tab.Row(i) {
				if !sameRep(v, rows[i][pos]) {
					t.Fatalf("%d rows: row %d column %d reads %v, appended %v", k, i, pos, v, rows[i][pos])
				}
			}
		}
	}
	if cs := tab.ColData(); cs.Col(3).Kind != rel.KindInt || cs.Col(4).Vals == nil || cs.Col(5).Kind != rel.KindFloat {
		t.Error("the all-NULL, turning and late columns lost their shapes: the cases no longer cover them")
	}
}

// referenceColumn projects column pos of rows into a ColData the way the
// row-major tables did before the column became the table: the uniform
// kind of the non-NULL values, Nulls exactly when some row is NULL, an
// int64 column of zeros when no row is non-NULL, and Vals (no Nulls) when
// the kinds mix. Append must build exactly this, row after row.
func referenceColumn(rows []rel.Row, pos int) ColData {
	n := len(rows)
	kind := rel.KindNull
	mixed := false
	hasNull := false
	for _, row := range rows {
		v := row[pos]
		if v.IsNull() {
			hasNull = true
			continue
		}
		if kind == rel.KindNull {
			kind = v.Kind()
		} else if v.Kind() != kind {
			mixed = true
			break
		}
	}
	if mixed {
		col := ColData{Kind: rel.KindNull, Vals: make([]rel.Value, n)}
		for i, row := range rows {
			col.Vals[i] = row[pos]
		}
		return col
	}
	col := ColData{Kind: kind}
	if hasNull {
		col.Nulls = make([]bool, n)
	}
	switch kind {
	case rel.KindInt:
		col.Ints = make([]int64, n)
	case rel.KindFloat:
		col.Floats = make([]float64, n)
	case rel.KindString:
		col.Strs = make([]string, n)
	default:
		col.Kind = rel.KindInt
		col.Ints = make([]int64, n)
	}
	for i, row := range rows {
		v := row[pos]
		if v.IsNull() {
			col.Nulls[i] = true
			continue
		}
		switch col.Kind {
		case rel.KindInt:
			col.Ints[i] = v.AsInt()
		case rel.KindFloat:
			col.Floats[i] = v.AsFloat()
		case rel.KindString:
			col.Strs[i] = v.AsString()
		}
	}
	return col
}

// nullWords is the NULL marking nulls as a vec.Bitmap's words; nil
// without one.
func nullWords(nulls []bool) []uint64 {
	if nulls == nil {
		return nil
	}
	words := make([]uint64, vec.NumWords(len(nulls)))
	for i, null := range nulls {
		if null {
			words[i/vec.WordBits] |= 1 << (uint(i) % vec.WordBits)
		}
	}
	return words
}

// sameRep reports whether a and b are the same representation: the same
// kind, a float by bit pattern, NULL as itself.
func sameRep(a, b rel.Value) bool {
	if a.Kind() == rel.KindFloat && b.Kind() == rel.KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return a == b
}

// roundTripRows is a column of each shape Append must build: floats with
// NULL, NaN payloads, ±0 and ±Inf; ints with NULL and both extremes;
// strings with NULL; an all-NULL column; an int column that turns
// mixed-kind at row 5000, past indexMinRows; a column of NULLs that turns
// float at row 4500; and one that mixes kinds from its second row.
func roundTripRows(n int) []rel.Row {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	floats := []rel.Value{rel.Null, rel.Float(math.NaN()), rel.Float(nan2), rel.Float(0),
		rel.Float(math.Copysign(0, -1)), rel.Float(math.Inf(1)), rel.Float(math.Inf(-1)), rel.Float(2.5)}
	ints := []rel.Value{rel.Int(math.MinInt64), rel.Int(math.MaxInt64), rel.Null, rel.Int(0), rel.Int(-7)}
	rows := make([]rel.Row, n)
	for i := range rows {
		s := rel.String_(fmt.Sprint("s", i%13))
		if i%17 == 3 {
			s = rel.Null
		}
		turn := rel.Int(int64(i % 300))
		if i >= 5000 && i%2 == 0 {
			turn = rel.String_("x")
		}
		late := rel.Null
		if i >= 4500 && i%3 != 0 {
			late = rel.Float(float64(i) / 4)
		}
		mixed := []rel.Value{rel.Int(int64(i)), rel.Float(0.5), rel.Null, rel.String_("m")}[i%4]
		rows[i] = rel.Row{floats[i%len(floats)], ints[i%len(ints)], s, rel.Null, turn, late, mixed}
	}
	return rows
}

func roundTripTable(name string) *Table {
	cols := []rel.Column{{Name: "f", Kind: rel.KindFloat}, {Name: "i", Kind: rel.KindInt},
		{Name: "s", Kind: rel.KindString}, {Name: "null", Kind: rel.KindInt}, {Name: "turn", Kind: rel.KindInt},
		{Name: "late", Kind: rel.KindFloat}, {Name: "mixed", Kind: rel.KindInt}}
	return NewTable(name, rel.NewSchema(cols...))
}

// TestAppendAfterIndexBuild: an index built before an Append is not
// served after it — the column gets a fresh one, which sees the new row.
func TestAppendAfterIndexBuild(t *testing.T) {
	tab := intTable(indexMinRows, func(i int) rel.Value { return rel.Int(int64(i % 1000)) })
	if rows, ok := tab.ColData().Col(0).IndexRows(5000, 5000, nil, nil); !ok || len(rows) != 0 {
		t.Fatalf("before the append: %v, %v", rows, ok)
	}
	tab.MustAppend(rel.Row{rel.Int(5000)})
	if rows, ok := tab.ColData().Col(0).IndexRows(5000, 5000, nil, nil); !ok || !slices.Equal(rows, []int32{indexMinRows}) {
		t.Fatalf("after the append: %v, %v; want the appended row", rows, ok)
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
		for id := range tab.NumRows() {
			byRow.insert(tab.Row(id)[pos], id)
		}
		for id := range tab.NumRows() {
			v := tab.Row(id)[pos]
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
// contents (samples are subsets). Beyond that, at ratio 0.05, at the
// ratio a 600-row floor sets and at 1, a sample holds the row-major
// sampler's rows (referenceSample) in its order, by representation, in
// columns shaped as appending those rows would shape them; only the
// full-ratio sample shares the table's columns, and Appends to the table
// after it is drawn — into spare capacity, past a NULL word boundary,
// turning a column mixed-kind — leave its row count and every cell as
// they were, as an Append to the sample leaves the table.
func TestSampleSubsetProperty(t *testing.T) {
	tab := makeTable(t, 500)
	f := func(seed int64) bool {
		s := tab.Sample("s", 0.2, seed)
		base := map[string]int{}
		for id := range tab.NumRows() {
			base[tab.Row(id).String()]++
		}
		for id := range s.NumRows() {
			r := s.Row(id).String()
			if base[r] == 0 {
				return false
			}
			base[r]--
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}

	all := roundTripRows(6000)
	rows := all[:4500]
	tab = roundTripTable("t")
	for _, row := range rows {
		tab.MustAppend(row)
	}
	full := tab.Sample("full", 1, 7)
	for _, ratio := range []float64{0.05, 600.0 / float64(len(rows)), 1} {
		for _, seed := range []int64{1, 99} {
			s := tab.Sample("s", ratio, seed)
			want := referenceSample(rows, ratio, seed)
			if s.NumRows() != len(want) {
				t.Fatalf("ratio %v seed %d: %d rows, the row sampler keeps %d", ratio, seed, s.NumRows(), len(want))
			}
			for i, row := range want {
				for pos, v := range s.Row(i) {
					if !sameRep(v, row[pos]) {
						t.Fatalf("ratio %v seed %d: row %d column %d reads %v, want %v", ratio, seed, i, pos, v, row[pos])
					}
				}
			}
			for pos := range s.Schema().Columns {
				if got, ref := s.ColData().Col(pos), referenceColumn(want, pos); !sameBytes(got, &ref) {
					t.Fatalf("ratio %v seed %d: column %d is shaped %v, want %v", ratio, seed, pos, got.Kind, ref.Kind)
				}
			}
			if shared := s.ColumnBytes(nil) - s.ColumnBytes(tab); (shared > 0) != (ratio == 1) {
				t.Errorf("ratio %v: %d bytes shared with the table", ratio, shared)
			}
		}
	}

	before := full.ColumnBytes(nil)
	// Nor does the other direction share: a row appended to a full-ratio
	// sample stays its own when the table then grows.
	own := tab.Sample("own", 1, 7)
	last := all[len(all)-1]
	own.MustAppend(last)
	for _, row := range all[len(rows):] {
		tab.MustAppend(row)
	}
	for pos, v := range own.Row(len(rows)) {
		if !sameRep(v, last[pos]) || !sameRep(tab.Row(len(rows))[pos], all[len(rows)][pos]) {
			t.Fatalf("column %d: a row appended to the full sample and one appended to its table reached each other", pos)
		}
	}
	if full.NumRows() != len(rows) || full.ColumnBytes(nil) != before {
		t.Fatalf("full sample has %d rows and %d bytes after the appends, want %d and %d", full.NumRows(), full.ColumnBytes(nil), len(rows), before)
	}
	for pos := range full.Schema().Columns {
		got, want := full.ColData().Col(pos), referenceColumn(rows, pos)
		if !sameBytes(got, &want) || !slices.Equal(got.NullWords, nullWords(want.Nulls)) {
			t.Fatalf("full sample column %d changed under the appends", pos)
		}
	}
}

// referenceSample is the row-major Bernoulli sampler: row by row, keep
// the row when the seeded draw falls under ratio.
func referenceSample(rows []rel.Row, ratio float64, seed int64) []rel.Row {
	rng := rand.New(rand.NewSource(seed))
	var kept []rel.Row
	for _, row := range rows {
		if rng.Float64() < ratio {
			kept = append(kept, row)
		}
	}
	return kept
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
