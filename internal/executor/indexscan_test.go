package executor

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
	"reopt/internal/vec"
)

// Scans answered from the sorted sample index against the same scans
// through the kernels: selective int predicates on a sample column of
// 4096 rows or more take the index (storage.ColData.IndexRows), every
// other predicate and every smaller or intermediate column the kernel.
// The two select the same rows; a scan whose one filter the index answers
// holds them in the index's (value, row id) order, and nothing counted
// depends on that order.

// indexScanRows is well above the indexing cut-off, with a ragged last
// word.
const indexScanRows = 4*4096 + 1001

// floatEdges are the float64 values where Compare's order meets the
// int64 one or ends: NaN, ±Inf, ±0, the floats around ±2^53 and ±2^63,
// and the extremes of the finite floats.
var floatEdges = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	0x1p53, 0x1p53 + 2, -0x1p53, -0x1p53 - 2, 0x1p63, -0x1p63, math.MaxFloat64, -math.MaxFloat64}

// indexScanRow is row i of the scanned table t(v, w, f, id): v mixes
// duplicates, negatives, NULLs, both int64 extremes and the integers
// around ±2^53, w is a small domain with NULLs, f a float column (never
// indexed) with NULLs and every one of floatEdges.
func indexScanRow(i int) rel.Row {
	v := rel.Int(int64(i*7919) % 2000)
	switch {
	case i%7 == 3:
		v = rel.Null
	case i%101 == 0:
		v = rel.Int(math.MinInt64)
	case i%103 == 0:
		v = rel.Int(math.MaxInt64)
	case i%107 == 0:
		v = rel.Int((1<<53 + int64(i%3) - 1) * int64(1-i%2*2))
	case i%5 == 0:
		v = rel.Int(-int64(i % 50))
	}
	w := rel.Int(int64(i % 50))
	if i%13 == 0 {
		w = rel.Null
	}
	f := rel.Float(float64(i%100) + 0.25)
	switch {
	case i%11 == 4:
		f = rel.Null
	case i%97 == 0:
		f = rel.Float(floatEdges[i/97%len(floatEdges)])
	}
	return rel.Row{v, w, f, rel.Int(int64(i))}
}

// indexScanCatalog holds t, u(id) with one row per id of t, and a small
// s(id) holding each of 0..39 two or three times.
func indexScanCatalog() *catalog.Catalog {
	cat := catalog.New()
	t := storage.NewTable("t", rel.NewSchema(
		rel.Column{Name: "v", Kind: rel.KindInt}, rel.Column{Name: "w", Kind: rel.KindInt},
		rel.Column{Name: "f", Kind: rel.KindFloat}, rel.Column{Name: "id", Kind: rel.KindInt}))
	for i := 0; i < indexScanRows; i++ {
		t.MustAppend(indexScanRow(i))
	}
	cat.MustAddTable(t)
	u := storage.NewTable("u", rel.NewSchema(rel.Column{Name: "id", Kind: rel.KindInt}))
	for i := 0; i < indexScanRows; i++ {
		u.MustAppend(rel.Row{rel.Int(int64(i))})
	}
	cat.MustAddTable(u)
	s := storage.NewTable("s", rel.NewSchema(rel.Column{Name: "id", Kind: rel.KindInt}))
	for i := 0; i < 100; i++ {
		s.MustAppend(rel.Row{rel.Int(int64(i % 40))})
	}
	cat.MustAddTable(s)
	return cat
}

func sel(col string, op sql.CompareOp, v rel.Value) sql.Selection {
	return sql.Selection{Col: ref("t", col), Op: op, Value: v}
}

func between(col string, lo, hi int64) sql.Selection {
	return betweenValues(col, lo, rel.Int(hi))
}

// betweenValues is BETWEEN with an integer lower bound and an upper bound
// of any kind, as the parser accepts it.
func betweenValues(col string, lo int64, hi rel.Value) sql.Selection {
	return betweenAny(col, rel.Int(lo), hi)
}

// betweenAny is BETWEEN with bounds of any kind.
func betweenAny(col string, lo, hi rel.Value) sql.Selection {
	return sql.Selection{Col: ref("t", col), Op: sql.OpBetween, Value: lo, Value2: hi}
}

// indexFilterShapes are filters on t.v of every shape the index meets: all
// six operators over interior constants, both extremes and float
// constants — fractional, integral, past ±2^53 and ±2^63, ±0, ±Inf and
// NaN — BETWEEN over interior, single-value, extreme, inverted, empty and
// (nearly) whole-column ranges, and BETWEEN from an integer to a float,
// which the index answers, and to a string and NULL, which it never does.
// After them come the same shapes on the float column t.f, which the
// index never answers: all six operators over floatEdges, interior
// floats and the integers MinInt64, MaxInt64 and ±(2^53±1) that no
// float64 holds, and BETWEEN over float, int and mixed bounds.
func indexFilterShapes() []sql.Selection {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	var filters []sql.Selection
	for _, op := range []sql.CompareOp{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe} {
		for _, c := range []int64{lo, lo + 1, -45, 0, 7, 1990, 1999, 2000, hi - 1, hi} {
			filters = append(filters, sel("v", op, rel.Int(c)))
		}
		for _, c := range []float64{-44.5, 7, 1999.5, math.Copysign(0, -1), 0x1p53, -0x1p53 - 2,
			0x1p63, -0x1p63, math.Inf(1), math.Inf(-1), math.NaN()} {
			filters = append(filters, sel("v", op, rel.Float(c)))
		}
	}
	for _, r := range [][2]int64{{100, 120}, {7, 7}, {lo, -40}, {1990, hi}, {lo, lo}, {hi, hi},
		{120, 100}, {hi, lo}, {2000, 9000}, {lo, hi}, {0, hi}} {
		filters = append(filters, between("v", r[0], r[1]))
	}
	for _, h := range []rel.Value{rel.Float(120.5), rel.Float(-0.5), rel.Float(math.NaN()), rel.Float(0x1p63),
		rel.String_("x"), rel.Null} {
		filters = append(filters, betweenValues("v", 100, h), betweenValues("v", -45, h))
	}
	var fc []rel.Value
	for _, c := range append([]float64{0.25, 42.5, 99.25}, floatEdges...) {
		fc = append(fc, rel.Float(c))
	}
	for _, c := range []int64{lo, hi, 1<<53 - 1, 1<<53 + 1, -1<<53 + 1, -1<<53 - 1, 0, 42} {
		fc = append(fc, rel.Int(c))
	}
	for _, op := range []sql.CompareOp{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe} {
		for _, c := range fc {
			filters = append(filters, sel("f", op, c))
		}
	}
	inf, minf, nan := rel.Float(math.Inf(1)), rel.Float(math.Inf(-1)), rel.Float(math.NaN())
	for _, r := range [][2]rel.Value{{minf, inf}, {minf, nan}, {nan, nan}, {inf, nan}, {inf, inf},
		{rel.Float(math.Copysign(0, -1)), rel.Float(0)}, {rel.Float(0), rel.Float(math.Copysign(0, -1))},
		{rel.Float(10.25), rel.Float(60.5)}, {rel.Float(60.5), rel.Float(10.25)},
		{rel.Int(-1<<53 - 1), rel.Int(1<<53 + 1)}, {rel.Int(lo), rel.Int(hi)}, {rel.Int(1<<53 - 1), rel.Float(0x1p53)},
		{rel.Float(0x1p53), rel.Int(1<<53 + 1)}, {rel.Int(1<<53 + 1), inf}, {rel.Int(10), rel.Float(60.5)},
		{rel.Float(0.25), rel.String_("x")}, {rel.Int(0), rel.Null}} {
		filters = append(filters, betweenAny("f", r[0], r[1]))
	}
	return filters
}

// isIntInterval reports whether filter f is one closed interval of int64
// values — what the sorted sample index can answer — and returns it.
func isIntInterval(f sql.Selection) (lo, hi int64, ok bool) {
	lo, hi, not, ok := numInterval(f, intPlace, intNext)
	return lo, hi, ok && !not
}

// filterPass compiles filter f on col as a scan with several filters
// does: an index pass when the sorted sample index answers it, the
// kernel pass otherwise.
func filterPass(col *storage.ColData, f sql.Selection) scanPass {
	if rows, ok := indexRows(col, f, nil, nil); ok {
		return indexPass(rows)
	}
	return kernelPass(col, f)
}

// unindexed copies a column's contents into one no store owns, which
// therefore compiles to kernel passes only.
func unindexed(col *storage.ColData) *storage.ColData {
	c := col.NewLike(len(col.Ints) + len(col.Floats))
	copy(c.Ints, col.Ints)
	copy(c.Floats, col.Floats)
	copy(c.Nulls, col.Nulls)
	c.NullWords = slices.Clone(col.NullWords)
	return &c
}

// withoutSortedIndex runs f with the engine's sorted sample indexes
// switched off: the same catalog, validated through the kernels alone.
func withoutSortedIndex(f func()) {
	useSortedIndex = false
	defer func() { useSortedIndex = true }()
	f()
}

// TestIndexedPassMatchesKernelPass: every filter on the indexed column v
// compiles to a pass that fills the same bitmap words as the pass
// compiled against an un-indexed copy of the column — whole column and
// word-aligned spans — for all six operators and BETWEEN over interior
// constants, both extremes, inverted and empty ranges, float constants and
// mixed-kind BETWEEN bounds; the kernel pass keeps exactly the rows
// sql.EvalSelection keeps, on v and on the float column f, whose NaN,
// ±Inf and ±0 rows and int constants no float64 holds test numInterval's
// float side; and the index answers exactly the selective int intervals
// on v.
func TestIndexedPassMatchesKernelPass(t *testing.T) {
	cat := indexScanCatalog()
	tab, _ := cat.Table("t")
	cols := map[string]*storage.ColData{"v": tab.ColData().Col(0), "f": tab.ColData().Col(2)}
	n := indexScanRows

	indexed := map[sql.CompareOp]int{}
	for _, f := range indexFilterShapes() {
		col := cols[f.Col.Column]
		plain := unindexed(col)
		got := filterPass(col, f)
		want := filterPass(plain, f)
		all := vec.NewBitmap(n)
		want(all, 0, n)
		for i := 0; i < n; i++ {
			if all.Get(i) != sql.EvalSelection(plain.Value(i), f) {
				t.Fatalf("%s: the kernel pass keeps row %d (%v) = %v, sql.EvalSelection %v", f, i, plain.Value(i), all.Get(i), !all.Get(i))
			}
		}
		for _, span := range [][2]int{{0, n}, {0, 4096}, {4096, 12288}, {12288, n}} {
			a, b := vec.NewBitmap(n), vec.NewBitmap(n)
			for w := range a.Words() {
				a.Words()[w] = ^uint64(0) // a pass assigns its words: none may survive
			}
			got(a, span[0], span[1])
			want(b, span[0], span[1])
			for w := span[0] / vec.WordBits; w < vec.NumWords(span[1]); w++ {
				if a.Words()[w] != b.Words()[w] {
					t.Fatalf("%s rows [%d, %d): word %d is %#x through the index, %#x through the kernel",
						f, span[0], span[1], w, a.Words()[w], b.Words()[w])
				}
			}
		}
		// Which path was taken: count the matches and ask the index what
		// the engine asked it.
		_, asked := indexRows(col, f, nil, nil)
		l, h, ok := isIntInterval(f)
		if !ok || col.Kind != rel.KindInt {
			if asked {
				t.Errorf("%s is not one int interval on an int column, yet the index answered it", f)
			}
			continue
		}
		selective := all.Count(0, n)*2 <= n
		if _, answered := col.IndexRows(l, h, nil, nil); answered != selective || asked != selective {
			t.Errorf("%s matches %d of %d rows: answered by the index = %v", f, all.Count(0, n), n, answered)
		}
		if selective {
			indexed[f.Op]++
		}
	}
	for _, op := range []sql.CompareOp{sql.OpEq, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe, sql.OpBetween} {
		if indexed[op] < 3 {
			t.Errorf("operator %v took the index on %d filters: the cases no longer exercise it", op, indexed[op])
		}
	}
}

// TestIndexedScanSelection: scans of t — whose sub-result carries t.id,
// i.e. the selection vector itself — select exactly the rows
// sql.EvalSelection accepts, through both entry points, cold and warm: in
// (v, id) order when the scan's one filter is a selective int interval on
// v, which the index answers, and in ascending row order otherwise. Each
// case is a loose and a tight instance of one filter shape; the cases mix
// indexed passes with kernel passes in one conjunction and include a
// range matching everything, one matching nothing, and BETWEENs from an
// integer to a float, a string and a NULL bound, which stay on the kernels.
func TestIndexedScanSelection(t *testing.T) {
	cat := indexScanCatalog()
	ctx := context.Background()
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	cases := map[string][2][]sql.Selection{
		"between":          {{between("v", 100, 400)}, {between("v", 150, 300)}},
		"equals":           {{sel("v", sql.OpEq, rel.Int(7))}, {sel("v", sql.OpEq, rel.Int(-10))}},
		"less":             {{sel("v", sql.OpLt, rel.Int(-30))}, {sel("v", sql.OpLt, rel.Int(-45))}},
		"less or equal":    {{sel("v", sql.OpLe, rel.Int(-30))}, {sel("v", sql.OpLe, rel.Int(lo))}},
		"greater":          {{sel("v", sql.OpGt, rel.Int(1900))}, {sel("v", sql.OpGt, rel.Int(1999))}},
		"greater or equal": {{sel("v", sql.OpGe, rel.Int(1900))}, {sel("v", sql.OpGe, rel.Int(hi))}},
		"index AND float kernel": {
			{between("v", 100, 400), sel("f", sql.OpLt, rel.Float(60.5))},
			{between("v", 150, 300), sel("f", sql.OpLt, rel.Float(30.5))}},
		"kernel AND index": {
			{sel("v", sql.OpGe, rel.Int(0)), between("w", 3, 9)},
			{sel("v", sql.OpGe, rel.Int(10)), between("w", 4, 5)}},
		"everything, then nothing": {{between("v", lo, hi)}, {between("v", 400, 100)}},
		"int to float": {
			{betweenValues("v", 100, rel.Float(400.5))},
			{betweenValues("v", 150, rel.Float(300.5))}},
		"int to string, then NULL": {
			{betweenValues("v", 100, rel.String_("x"))},
			{betweenValues("v", 150, rel.Null)}},
		"int to float AND index": {
			{betweenValues("v", 100, rel.Float(400.5)), between("w", 3, 9)},
			{betweenValues("v", 150, rel.Null), between("w", 4, 5)}},
	}
	valueOrdered, rowOrdered := 0, 0
	for name, instances := range cases {
		var plans []*plan.Plan
		var scans []*plan.ScanNode
		var want [][]int64
		for _, filters := range instances {
			q := &sql.Query{CountStar: true, Selections: filters,
				Tables: []sql.TableRef{{Name: "t", Alias: "t"}, {Name: "u", Alias: "u"}},
				Joins:  []sql.JoinPred{{Left: ref("t", "id"), Right: ref("u", "id")}}}
			scan := skelScan(cat, q, "t")
			plans = append(plans, &plan.Plan{Query: q, Root: skelJoin(q, scan, skelScan(cat, q, "u"))})
			scans = append(scans, scan)
			var ids []int64
		rows:
			for i := 0; i < indexScanRows; i++ {
				row := indexScanRow(i)
				for _, f := range filters {
					pos, _ := scan.OutSchema.IndexOf("t", f.Col.Column)
					if !sql.EvalSelection(row[pos], f) {
						continue rows
					}
				}
				ids = append(ids, int64(i))
			}
			_, _, interval := isIntInterval(filters[0])
			if len(filters) == 1 && interval && len(ids)*2 <= indexScanRows {
				slices.SortStableFunc(ids, func(a, b int64) int {
					return cmp.Compare(indexScanRow(int(a))[0].AsInt(), indexScanRow(int(b))[0].AsInt())
				})
				if len(ids) > 1 && !slices.IsSorted(ids) {
					valueOrdered++
				}
			} else if len(ids) > 1 {
				rowOrdered++
			}
			want = append(want, ids)
		}
		check := func(label string, pi int, counts map[plan.Node]int64, cache *SkeletonCache) {
			t.Helper()
			q := plans[pi].Query
			sub, ok := cache.getSub(subKey(testPrefix, subtreeSig(scans[pi]), boundaryColumns(q, []string{"t"})))
			if !ok || len(sub.cols) != 1 {
				t.Fatalf("%s [%s] instance %d: scan of t not cached with its id column", name, label, pi)
			}
			if got := sub.cols[0].Ints; len(got) != len(want[pi]) || counts[scans[pi]] != int64(len(want[pi])) {
				t.Fatalf("%s [%s] instance %d: selected %d rows (count %d), want %d",
					name, label, pi, len(got), counts[scans[pi]], len(want[pi]))
			}
			if set := slices.Sorted(slices.Values(sub.cols[0].Ints)); !slices.Equal(set, slices.Sorted(slices.Values(want[pi]))) {
				t.Fatalf("%s [%s] instance %d: selected a different set of rows", name, label, pi)
			}
			for x, id := range want[pi] {
				if sub.cols[0].Ints[x] != id {
					t.Fatalf("%s [%s] instance %d: selection[%d] = row %d, want row %d", name, label, pi, x, sub.cols[0].Ints[x], id)
				}
			}
		}
		single, batch := NewSkeletonCache(0, 0), NewSkeletonCache(0, 0)
		for _, label := range []string{"cold", "warm"} {
			for pi, p := range plans {
				got, err := countSkeletonCfg(ctx, p, cat.Table, single, 0)
				if err != nil {
					t.Fatalf("%s [%s single]: %v", name, label, err)
				}
				check(label+" single", pi, got, single)
			}
			got, err := countBatch(ctx, plans, cat.Table, batch, 0)
			if err != nil {
				t.Fatalf("%s [%s batch]: %v", name, label, err)
			}
			for pi := range plans {
				check(label+" batch", pi, got[pi], batch)
			}
		}
	}
	if valueOrdered < 6 || rowOrdered < 4 {
		t.Fatalf("%d instances in (v, id) order, %d in row order: the cases no longer cover both paths", valueOrdered, rowOrdered)
	}
}

// scanBag renders a sub-result's bag of boundary tuples two ways: each
// distinct tuple with its summed weight, and the sorted (tuple, weight)
// pairs of its physical rows. repeats reports a tuple held by two
// physical rows — over unweighted input, a compaction that gave up.
func scanBag(sub *subResult) (sums map[string]int64, pairs []string, repeats bool) {
	sums = make(map[string]int64, sub.count)
	var tuple []byte
	for x := 0; x < sub.count; x++ {
		tuple = tuple[:0]
		for k := range sub.cols {
			if c := &sub.cols[k]; c.Kind == rel.KindInt && !c.IsNull(x) {
				tuple = strconv.AppendInt(tuple, c.Ints[x], 10)
			} else {
				tuple = fmt.Append(tuple, c.Value(x))
			}
			tuple = append(tuple, '|')
		}
		w := int64(1)
		if sub.w != nil {
			w = sub.w[x]
		}
		_, seen := sums[string(tuple)]
		repeats = repeats || seen
		sums[string(tuple)] += w
		pairs = append(pairs, string(strconv.AppendInt(tuple, w, 10)))
	}
	slices.Sort(pairs)
	return sums, pairs, repeats
}

// planCharge is what validating steps charged a memory budget, read back
// from the sub-results the run left in cache: each step's materialized
// cells, plus a join's hash-table entries, one per physical build row.
func planCharge(t *testing.T, steps []Step, cache *SkeletonCache) int64 {
	t.Helper()
	var charge int64
	for i := range steps {
		sub, ok := cache.getSub(steps[i].Set.key)
		if !ok {
			t.Fatalf("step %d (%s) left nothing in the cache", i, steps[i].Set.Key)
		}
		charge += subCharge(sub)
		if steps[i].join != nil {
			charge += steps[steps[i].right].Rows
		}
	}
	return charge
}

// TestIndexedScanCountsMatchKernel: answering a scan from the sorted
// sample index changes the physical row order of its sub-result and
// nothing counted. For every filter shape of
// TestIndexedPassMatchesKernelPass, 2- and 3-table plans whose boundary
// columns on t are correlated with the filter column (t.v itself),
// uncorrelated with it (t.w) or both are validated cold and warm, over the
// indexed catalog and with the index switched off. On both:
//   - every Step.Count, hence the Δ, is the same cold, warm and on the
//     other side;
//   - each scan sub-result holds the other side's bag of boundary tuples
//     and, whenever neither side's compaction gave up, the same multiset
//     of (boundary tuple, weight);
//   - a memory budget one below the plan's charge breaches and one at it
//     passes, uncached, cold and warm alike;
//   - an index-answered scan's sub-result, compacted from the ordered
//     copies' runs, is byte for byte scanSub over the sample's columns at
//     the index's row ids.
//
// The shapes' NaN constants also pin that a scan filter whose constant is
// NaN is the query's own selection (sameSelection), so it validates. The
// shapes on the float column f are left out: the index never answers them,
// so both sides would run the same kernels.
func TestIndexedScanCountsMatchKernel(t *testing.T) {
	cat := indexScanCatalog()
	ctx := context.Background()
	j := func(lt, lc, rt, rc string) sql.JoinPred { return sql.JoinPred{Left: ref(lt, lc), Right: ref(rt, rc)} }
	shapes := []struct {
		name   string
		tables []string
		joins  []sql.JoinPred
	}{
		{"correlated", []string{"t", "u"}, []sql.JoinPred{j("t", "v", "u", "id")}},
		{"uncorrelated", []string{"t", "u"}, []sql.JoinPred{j("t", "w", "u", "id")}},
		{"both, 3 tables", []string{"t", "u", "s"}, []sql.JoinPred{j("t", "v", "u", "id"), j("t", "w", "s", "id")}},
	}
	scales := []float64{3.5, 1.25, 2}

	type side struct {
		counts map[string]int64
		delta  map[string]float64
		scans  map[string]*subResult // the filtered scans'
	}
	reordered, compared, fromHeap := 0, 0, 0
	for _, f := range indexFilterShapes() {
		if f.Col.Column != "v" {
			continue
		}
		for _, shape := range shapes {
			q := &sql.Query{CountStar: true, Selections: []sql.Selection{f}, Joins: shape.joins}
			for _, name := range shape.tables {
				q.Tables = append(q.Tables, sql.TableRef{Name: name, Alias: name})
			}
			var root plan.Node = skelScan(cat, q, "t")
			if len(shape.tables) == 3 {
				root = skelJoin(q, root, skelScan(cat, q, "s"))
			}
			p := &plan.Plan{Query: q, Root: skelJoin(q, root, skelScan(cat, q, "u"))}
			label := fmt.Sprintf("%s, %s", f, shape.name)
			validate := func(cache *SkeletonCache, budget int64) ([]Step, error) {
				tables, err := tablesOf(q, cat.Table)
				if err != nil {
					return nil, err
				}
				prep, err := NewPrepared(sql.NewGraph(q), cache, 0, tables, scales[:len(q.Tables)], budget)
				if err != nil {
					return nil, err
				}
				return prep.Count(ctx, p.Root)
			}
			run := func(which string) (s side) {
				cache := NewSkeletonCache(0, 0)
				var charge int64
				for _, temp := range []string{"cold", "warm"} {
					steps, err := validate(cache, 0)
					if err != nil {
						t.Fatalf("%s [%s %s]: %v", label, which, temp, err)
					}
					counts, delta := map[string]int64{}, map[string]float64{}
					for _, st := range steps {
						counts[st.Set.Key] = st.Count
						delta[st.Set.Key] = float64(st.Count) * st.Scale
					}
					if temp == "warm" {
						if !maps.Equal(counts, s.counts) || !maps.Equal(delta, s.delta) {
							t.Fatalf("%s [%s]: warm counts %v, cold %v", label, which, counts, s.counts)
						}
						continue
					}
					s.counts, s.delta, s.scans = counts, delta, map[string]*subResult{}
					for _, st := range steps {
						if st.scan != nil && len(st.scan.Filters) > 0 {
							s.scans[st.Set.Key], _ = cache.getSub(st.Set.key)
							if heapPathMatches(t, label, cat, st, s.scans[st.Set.Key]) {
								fromHeap++
							}
						}
					}
					charge = planCharge(t, steps, cache)
				}
				// The charge read off the cold run is the charge uncached and on
				// the warm cache: the verdict flips exactly there.
				for _, c := range []*SkeletonCache{nil, cache} {
					for _, b := range []int64{charge - 1, charge} {
						if b <= 0 {
							continue
						}
						_, err := validate(c, b)
						if err != nil && !errors.Is(err, ErrMemoryBudget) || errors.Is(err, ErrMemoryBudget) != (b < charge) {
							t.Fatalf("%s [%s, cached %v]: budget %d against a charge of %d: %v", label, which, c != nil, b, charge, err)
						}
					}
				}
				return s
			}
			on := run("indexed")
			var off side
			withoutSortedIndex(func() { off = run("kernel") })
			if !maps.Equal(on.counts, off.counts) || !maps.Equal(on.delta, off.delta) {
				t.Fatalf("%s: counts %v with the index, %v without", label, on.counts, off.counts)
			}
			for key, a := range on.scans {
				b := off.scans[key]
				aSums, aPairs, aRepeats := scanBag(a)
				bSums, bPairs, bRepeats := scanBag(b)
				if !maps.Equal(aSums, bSums) {
					t.Fatalf("%s: scan %s holds a different bag with the index", label, key)
				}
				if !aRepeats && !bRepeats {
					compared++
					if !slices.Equal(aPairs, bPairs) {
						t.Fatalf("%s: scan %s holds different (tuple, weight) pairs with the index", label, key)
					}
				}
				if !sameSub(a, b) {
					reordered++
				}
			}
		}
	}
	if reordered == 0 || compared == 0 || fromHeap == 0 {
		t.Fatalf("%d scan sub-results reordered by the index, %d compared pair by pair, %d against the heap columns: the cases no longer exercise the index",
			reordered, compared, fromHeap)
	}
}

// heapPathMatches checks an index-answered scan's sub-result, which the
// engine compacts from the runs of the index's ordered copies, against
// scanSub over the sample's own columns at the index's row ids: byte for
// byte the same. It reports false, checking nothing, for a scan the index
// does not answer alone.
func heapPathMatches(t *testing.T, label string, cat *catalog.Catalog, st Step, sub *subResult) bool {
	t.Helper()
	tab, err := cat.Table(st.scan.Table)
	if err != nil {
		t.Fatal(err)
	}
	filterPos, poss, err := scanPositions(st.scan, st.Set.refs)
	if err != nil || len(filterPos) != 1 {
		return false
	}
	cs := tab.ColData()
	rows, ok := indexRows(cs.Col(filterPos[0]), st.scan.Filters[0], nil, nil)
	if !ok {
		return false
	}
	if heap := scanSub(new(skelScratch), cs, poss, rows); !sameSub(sub, heap) {
		t.Fatalf("%s: scan %s differs from the heap columns compacted at the index's rows", label, st.Set.Key)
	}
	return true
}
