package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"reopt/internal/rel"
	"reopt/internal/storage"
)

func tableOf(vals []int64) *storage.Table {
	t := storage.NewTable("t", rel.NewSchema(rel.Column{Name: "x", Kind: rel.KindInt}))
	for _, v := range vals {
		t.MustAppend(rel.Row{rel.Int(v)})
	}
	return t
}

// referenceAnalyzeColumn is the map-based ANALYZE AnalyzeColumn replaced:
// value counts and first-seen exemplars in maps keyed by Value.Key, MCVs
// by sorting all distinct values, and the histogram by sorting the
// non-MCV values themselves. It is the oracle AnalyzeColumn must match.
func referenceAnalyzeColumn(t *storage.Table, pos int, opts AnalyzeOptions) *ColumnStats {
	target := opts.Target
	if target <= 0 {
		target = DefaultTarget
	}
	minCount := opts.MCVMinCount
	if minCount <= 0 {
		minCount = 2
	}

	col := t.Schema().Columns[pos]
	cs := &ColumnStats{
		Table:   col.Table,
		Column:  col.Name,
		NumRows: t.NumRows(),
	}
	if cs.NumRows == 0 {
		cs.mcvIndex = map[rel.ValueKey]float64{}
		return cs
	}

	counts := make(map[rel.ValueKey]int)
	exemplar := make(map[rel.ValueKey]rel.Value)
	nulls := 0
	data := t.ColData().Col(pos)
	for i := range t.NumRows() {
		v := data.Value(i)
		if v.IsNull() {
			nulls++
			continue
		}
		k := v.Key()
		counts[k]++
		if _, ok := exemplar[k]; !ok {
			exemplar[k] = v
		}
	}
	cs.NullFrac = float64(nulls) / float64(cs.NumRows)
	cs.NumDistinct = len(counts)

	type vc struct {
		v rel.Value
		c int
	}
	all := make([]vc, 0, len(counts))
	for k, c := range counts {
		all = append(all, vc{v: exemplar[k], c: c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].v.Compare(all[j].v) < 0
	})
	cs.mcvIndex = make(map[rel.ValueKey]float64)
	for _, e := range all {
		if len(cs.MCV) >= target || e.c < minCount {
			break
		}
		f := float64(e.c) / float64(cs.NumRows)
		cs.MCV = append(cs.MCV, MCVEntry{Value: e.v, Freq: f})
		cs.mcvIndex[e.v.Key()] = f
		cs.mcvFreqSum += f
	}

	rest := make([]rel.Value, 0, cs.NumRows)
	for i := range t.NumRows() {
		v := data.Value(i)
		if v.IsNull() {
			continue
		}
		if _, ok := cs.mcvIndex[v.Key()]; ok {
			continue
		}
		rest = append(rest, v)
	}
	if len(rest) > 0 {
		cs.Hist = referenceHistogram(rest, target)
		cs.Hist.TotalFrac = float64(len(rest)) / float64(cs.NumRows)
	}
	return cs
}

func referenceHistogram(vals []rel.Value, buckets int) *Histogram {
	sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
	if buckets > len(vals) {
		buckets = len(vals)
	}
	if buckets < 1 {
		buckets = 1
	}
	bounds := make([]rel.Value, 0, buckets+1)
	for b := 0; b <= buckets; b++ {
		i := b * (len(vals) - 1) / buckets
		bounds = append(bounds, vals[i])
	}
	return &Histogram{Bounds: bounds}
}

// CheckAgainstReference fails t unless AnalyzeColumn and the reference
// agree on every column of tab under opts. Everything is compared with
// reflect.DeepEqual except two things: MCV values must be the same
// representation (Kind and String, so NaN matches NaN), and histogram
// bounds need only compare equal under Compare — the reference sorts
// unstably, so of one value's representations (-0.0 and 0.0, Int(1) and
// Float(1)) any may land on a bound. It is exported for the bench-catalog
// test in package stats_test.
func CheckAgainstReference(t *testing.T, tab *storage.Table, opts AnalyzeOptions) {
	t.Helper()
	for pos, col := range tab.Schema().Columns {
		got, want := *AnalyzeColumn(tab, pos, opts), *referenceAnalyzeColumn(tab, pos, opts)
		if d := diffStats(&got, &want); d != "" {
			t.Errorf("%s.%s %+v: %s", tab.Name(), col.Name, opts, d)
		}
	}
}

// diffStats describes how got differs from want (see
// CheckAgainstReference), or returns "". It clears the MCV and histogram
// fields of both once they are checked.
func diffStats(got, want *ColumnStats) string {
	if len(got.MCV) != len(want.MCV) {
		return fmt.Sprintf("%d MCVs, want %d", len(got.MCV), len(want.MCV))
	}
	for i, g := range got.MCV {
		w := want.MCV[i]
		if g.Value.Kind() != w.Value.Kind() || g.Value.String() != w.Value.String() || g.Freq != w.Freq {
			return fmt.Sprintf("MCV %d = %v, want %v", i, g, w)
		}
	}
	if (got.Hist == nil) != (want.Hist == nil) {
		return fmt.Sprintf("histogram %v, want %v", got.Hist, want.Hist)
	}
	if got.Hist != nil {
		gb, wb := got.Hist.Bounds, want.Hist.Bounds
		if got.Hist.TotalFrac != want.Hist.TotalFrac || len(gb) != len(wb) {
			return fmt.Sprintf("histogram %v, want %v", got.Hist, want.Hist)
		}
		for i := range gb {
			if gb[i].Compare(wb[i]) != 0 {
				return fmt.Sprintf("bound %d = %v, want %v", i, gb[i], wb[i])
			}
		}
	}
	got.MCV, want.MCV, got.Hist, want.Hist = nil, nil, nil, nil
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("got %+v, want %+v", *got, *want)
	}
	return ""
}

// TestAnalyzeMatchesReference compares AnalyzeColumn with the map-based
// reference on seeded columns built to reach every corner of the run
// reading: NULLs, all-NULL and empty columns, the float specials, the
// int64 extremes, strings, heavy duplicates, distinct counts at and just past the target, and counts on
// either side of the MCV threshold.
func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	specials := []rel.Value{
		rel.Float(math.NaN()), rel.Float(nan2), rel.Float(math.Inf(1)), rel.Float(math.Inf(-1)),
		rel.Float(math.Copysign(0, -1)), rel.Float(0), rel.Float(1.5), rel.Float(-2.25),
	}
	var edges []int64
	for v := int64(0); len(edges) < 1000; v++ {
		for k := int64(0); k < v%5; k++ {
			edges = append(edges, v)
		}
	}
	columns := map[string]func(i int) rel.Value{
		"ints_nulls": func(i int) rel.Value {
			if rng.Intn(7) == 0 {
				return rel.Null
			}
			return rel.Int(rng.Int63n(300))
		},
		"all_null": func(int) rel.Value { return rel.Null },
		"float_specials": func(i int) rel.Value {
			if rng.Intn(3) == 0 {
				return rel.Float(rng.NormFloat64())
			}
			return specials[rng.Intn(len(specials))]
		},
		"int_extremes": func(i int) rel.Value {
			switch rng.Intn(4) {
			case 0:
				return rel.Int(math.MinInt64)
			case 1:
				return rel.Int(math.MaxInt64)
			}
			return rel.Int(rng.Int63() - rng.Int63())
		},
		"strings": func(i int) rel.Value {
			if rng.Intn(10) == 0 {
				return rel.String_(fmt.Sprintf("u%d", i))
			}
			return rel.String_(fmt.Sprintf("s%02d", rng.Intn(60)))
		},
		"heavy_duplicates": func(i int) rel.Value {
			if rng.Intn(10) != 0 {
				return rel.Int(42)
			}
			return rel.Int(int64(i))
		},
		"target_distinct":       func(i int) rel.Value { return rel.Int(int64(i % DefaultTarget)) },
		"target_plus1_distinct": func(i int) rel.Value { return rel.Int(int64(i % (DefaultTarget + 1))) },
		// Value v occurs v%5 times: counts 1-4 straddle MCVMinCount 2 and 3.
		"min_count_edges": func(i int) rel.Value { return rel.Int(edges[i]) },
	}
	names := make([]string, 0, len(columns))
	for name := range columns {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, rows := range []int{0, 1, 7, 1000} {
		cols := make([]rel.Column, len(names))
		for i, name := range names {
			cols[i] = rel.Column{Name: name, Kind: rel.KindInt}
			switch name {
			case "float_specials":
				cols[i].Kind = rel.KindFloat
			case "strings":
				cols[i].Kind = rel.KindString
			}
		}
		tab := storage.NewTable(fmt.Sprintf("t%d", rows), rel.NewSchema(cols...))
		for i := 0; i < rows; i++ {
			row := make(rel.Row, len(names))
			for c, name := range names {
				row[c] = columns[name](i)
			}
			tab.MustAppend(row)
		}
		for _, opts := range []AnalyzeOptions{{}, {Target: 10, MCVMinCount: 3}, {Target: DefaultTarget + 1}} {
			CheckAgainstReference(t, tab, opts)
		}
	}
}

// TestIndexNumDistinctMatchesStats: an index counts the distinct non-NULL
// values ANALYZE counts, whether its rows arrived before CreateIndex (the
// bulk build) or after (Append) — NULL is no key, as Lookup never
// returns it.
func TestIndexNumDistinctMatchesStats(t *testing.T) {
	tab := storage.NewTable("t", rel.NewSchema(rel.Column{Name: "x", Kind: rel.KindInt}))
	add := func(from, to int) {
		for i := from; i < to; i++ {
			v := rel.Int(int64(i % 13))
			if i%5 == 0 {
				v = rel.Null
			}
			tab.MustAppend(rel.Row{v})
		}
	}
	add(0, 100)
	idx, err := tab.CreateIndex("x")
	if err != nil {
		t.Fatal(err)
	}
	add(100, 200)
	if got, want := idx.NumDistinct(), AnalyzeColumn(tab, 0, AnalyzeOptions{}).NumDistinct; got != want {
		t.Errorf("index NumDistinct %d, stats NumDistinct %d", got, want)
	}
}

func TestAnalyzeBasics(t *testing.T) {
	// 50x value 1, 30x value 2, 20 singletons.
	var vals []int64
	for i := 0; i < 50; i++ {
		vals = append(vals, 1)
	}
	for i := 0; i < 30; i++ {
		vals = append(vals, 2)
	}
	for i := int64(0); i < 20; i++ {
		vals = append(vals, 100+i)
	}
	cs := AnalyzeColumn(tableOf(vals), 0, AnalyzeOptions{})
	if cs.NumRows != 100 {
		t.Fatalf("rows: %d", cs.NumRows)
	}
	if cs.NumDistinct != 22 {
		t.Fatalf("ndistinct: %d", cs.NumDistinct)
	}
	if len(cs.MCV) != 2 {
		t.Fatalf("MCVs: %d (singletons must not be MCVs)", len(cs.MCV))
	}
	if cs.MCV[0].Value.AsInt() != 1 || math.Abs(cs.MCV[0].Freq-0.5) > 1e-12 {
		t.Errorf("top MCV: %+v", cs.MCV[0])
	}
	if math.Abs(cs.MCVFreqSum()-0.8) > 1e-12 {
		t.Errorf("MCV freq sum: %v", cs.MCVFreqSum())
	}
	if cs.Hist == nil || cs.Hist.NumBuckets() == 0 {
		t.Error("histogram missing for non-MCV values")
	}
}

func TestAnalyzeNulls(t *testing.T) {
	tab := storage.NewTable("t", rel.NewSchema(rel.Column{Name: "x", Kind: rel.KindInt}))
	for i := 0; i < 10; i++ {
		tab.MustAppend(rel.Row{rel.Null})
	}
	for i := 0; i < 30; i++ {
		tab.MustAppend(rel.Row{rel.Int(7)})
	}
	cs := AnalyzeColumn(tab, 0, AnalyzeOptions{})
	if math.Abs(cs.NullFrac-0.25) > 1e-12 {
		t.Errorf("null frac: %v", cs.NullFrac)
	}
	if cs.NumDistinct != 1 {
		t.Errorf("ndistinct: %d", cs.NumDistinct)
	}
	if s := cs.SelEquals(rel.Null); s != 0 {
		t.Errorf("= NULL selectivity: %v", s)
	}
}

func TestSelEqualsMCVHitAndMiss(t *testing.T) {
	// 60x value 5, plus values 0..39 once each... use count>=2 for MCV:
	// make 0..19 appear twice.
	var vals []int64
	for i := 0; i < 60; i++ {
		vals = append(vals, 5)
	}
	for i := int64(0); i < 20; i++ {
		vals = append(vals, 100+i, 100+i)
	}
	cs := AnalyzeColumn(tableOf(vals), 0, AnalyzeOptions{})
	// MCV hit: exact frequency.
	if s := cs.SelEquals(rel.Int(5)); math.Abs(s-0.6) > 1e-12 {
		t.Errorf("MCV hit sel: %v", s)
	}
	// With every distinct value an MCV, a miss estimates one row.
	if s := cs.SelEquals(rel.Int(999)); s != 1.0/100 {
		t.Errorf("miss sel: %v", s)
	}
}

func TestSelEqualsUniformMiss(t *testing.T) {
	// Uniform 1000 distinct values x2, MCV target caps at 100; misses
	// spread the residual mass over the remaining distinct values.
	var vals []int64
	for i := int64(0); i < 1000; i++ {
		vals = append(vals, i, i)
	}
	cs := AnalyzeColumn(tableOf(vals), 0, AnalyzeOptions{})
	if len(cs.MCV) != 100 {
		t.Fatalf("MCVs: %d", len(cs.MCV))
	}
	s := cs.SelEquals(rel.Int(1500)) // not present, estimated as uniform share
	want := (1 - cs.MCVFreqSum()) / float64(1000-100)
	if math.Abs(s-want) > 1e-12 {
		t.Errorf("miss sel: %v want %v", s, want)
	}
}

func TestSelRangeAndLess(t *testing.T) {
	var vals []int64
	for i := int64(0); i < 1000; i++ {
		vals = append(vals, i)
	}
	cs := AnalyzeColumn(tableOf(vals), 0, AnalyzeOptions{})
	if s := cs.SelRange(rel.Int(0), rel.Int(999)); s < 0.95 || s > 1.001 {
		t.Errorf("full range sel: %v", s)
	}
	s := cs.SelRange(rel.Int(100), rel.Int(299))
	if s < 0.15 || s > 0.25 {
		t.Errorf("20%% range sel: %v", s)
	}
	if s := cs.SelLess(rel.Int(499)); s < 0.45 || s > 0.55 {
		t.Errorf("half less sel: %v", s)
	}
	if s := cs.SelGreater(rel.Int(900)); s < 0.05 || s > 0.15 {
		t.Errorf("top decile sel: %v", s)
	}
	if s := cs.SelRange(rel.Int(10), rel.Int(5)); s != 0 {
		t.Errorf("inverted range sel: %v", s)
	}
}

// Property: selectivities stay within [0,1] for arbitrary probe values.
func TestSelectivityBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var vals []int64
	for i := 0; i < 5000; i++ {
		vals = append(vals, rng.Int63n(300))
	}
	cs := AnalyzeColumn(tableOf(vals), 0, AnalyzeOptions{})
	f := func(v int64) bool {
		for _, s := range []float64{
			cs.SelEquals(rel.Int(v)),
			cs.SelNotEquals(rel.Int(v)),
			cs.SelLess(rel.Int(v)),
			cs.SelGreater(rel.Int(v)),
			cs.SelRange(rel.Int(v), rel.Int(v+100)),
		} {
			if s < 0 || s > 1 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestJoinSelectivitySystemR(t *testing.T) {
	// No MCVs on either side (all singletons): 1/max(nd1, nd2).
	var a, b []int64
	for i := int64(0); i < 100; i++ {
		a = append(a, i)
	}
	for i := int64(0); i < 50; i++ {
		b = append(b, i)
	}
	ca := AnalyzeColumn(tableOf(a), 0, AnalyzeOptions{})
	cb := AnalyzeColumn(tableOf(b), 0, AnalyzeOptions{})
	s := JoinSelectivity(ca, cb)
	if math.Abs(s-0.01) > 1e-12 {
		t.Errorf("join sel: %v, want 0.01", s)
	}
}

func TestJoinSelectivityMCVRefinement(t *testing.T) {
	// Skewed sides: value 1 dominates both; the MCV join should push
	// the estimate far above 1/max(nd).
	var a, b []int64
	for i := 0; i < 900; i++ {
		a = append(a, 1)
		b = append(b, 1)
	}
	for i := int64(0); i < 100; i++ {
		a = append(a, 10+i)
		b = append(b, 1000+i)
	}
	ca := AnalyzeColumn(tableOf(a), 0, AnalyzeOptions{})
	cb := AnalyzeColumn(tableOf(b), 0, AnalyzeOptions{})
	s := JoinSelectivity(ca, cb)
	// True selectivity: 900*900/(1000*1000) = 0.81.
	if s < 0.7 || s > 0.9 {
		t.Errorf("MCV join sel: %v, want ~0.81", s)
	}
	// Exact true join size check.
	trueSel := 900.0 * 900.0 / (1000.0 * 1000.0)
	if math.Abs(s-trueSel) > 0.05 {
		t.Errorf("MCV join sel %v far from true %v", s, trueSel)
	}
}

func TestJoinSelectivityNilStats(t *testing.T) {
	if s := JoinSelectivity(nil, nil); s != DefaultJoinSel {
		t.Errorf("nil stats sel: %v", s)
	}
}

func TestAnalyzeEmptyTable(t *testing.T) {
	cs := AnalyzeColumn(tableOf(nil), 0, AnalyzeOptions{})
	if cs.NumRows != 0 || cs.SelEquals(rel.Int(1)) != 0 {
		t.Error("empty table stats wrong")
	}
}

func TestTableStatsColumnLookup(t *testing.T) {
	tab := storage.NewTable("t", rel.NewSchema(
		rel.Column{Name: "x", Kind: rel.KindInt},
		rel.Column{Name: "y", Kind: rel.KindInt},
	))
	tab.MustAppend(rel.Row{rel.Int(1), rel.Int(2)})
	ts := Analyze(tab, AnalyzeOptions{})
	if _, err := ts.Column("x"); err != nil {
		t.Error(err)
	}
	if _, err := ts.Column("zzz"); err == nil {
		t.Error("unknown column should error")
	}
}
