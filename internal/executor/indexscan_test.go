package executor

import (
	"context"
	"math"
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
// 4096 rows or more take the index (storage.ColData.IndexRange), every
// other predicate and every smaller or intermediate column the kernel,
// and the two must select the same rows.

// indexScanRows is well above the indexing cut-off, with a ragged last
// word.
const indexScanRows = 4*4096 + 1001

// indexScanRow is row i of the scanned table t(v, w, f, id): v mixes
// duplicates, negatives, NULLs and both int64 extremes, w is a small
// domain with NULLs, f a float column (never indexed).
func indexScanRow(i int) rel.Row {
	v := rel.Int(int64(i*7919) % 2000)
	switch {
	case i%7 == 3:
		v = rel.Null
	case i%101 == 0:
		v = rel.Int(math.MinInt64)
	case i%103 == 0:
		v = rel.Int(math.MaxInt64)
	case i%5 == 0:
		v = rel.Int(-int64(i % 50))
	}
	w := rel.Int(int64(i % 50))
	if i%13 == 0 {
		w = rel.Null
	}
	return rel.Row{v, w, rel.Float(float64(i%100) + 0.25), rel.Int(int64(i))}
}

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
	return cat
}

func sel(col string, op sql.CompareOp, v rel.Value) sql.Selection {
	return sql.Selection{Col: ref("t", col), Op: op, Value: v}
}

func between(col string, lo, hi int64) sql.Selection {
	return sql.Selection{Col: ref("t", col), Op: sql.OpBetween, Value: rel.Int(lo), Value2: rel.Int(hi)}
}

// unindexed copies a column's contents into one no store owns, which
// therefore compiles to kernel passes only.
func unindexed(col *storage.ColData) *storage.ColData {
	c := col.NewLike(len(col.Ints))
	copy(c.Ints, col.Ints)
	copy(c.Nulls, col.Nulls)
	c.BuildNullWords()
	return &c
}

// TestIndexedPassMatchesKernelPass: every filter on the indexed column v
// compiles to passes that fill the same bitmap words as the passes
// compiled against an un-indexed copy of the column — whole column and
// word-aligned spans — for all six operators and BETWEEN over interior
// constants, both extremes, inverted and empty ranges and float
// constants; and the index answers exactly the selective int ones.
func TestIndexedPassMatchesKernelPass(t *testing.T) {
	cat := indexScanCatalog()
	tab, _ := cat.Table("t")
	col := tab.ColData().Col(0)
	plain := unindexed(col)
	n := len(col.Ints)
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)

	var filters []sql.Selection
	for _, op := range []sql.CompareOp{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe} {
		for _, c := range []int64{lo, lo + 1, -45, 0, 7, 1990, 1999, 2000, hi - 1, hi} {
			filters = append(filters, sel("v", op, rel.Int(c)))
		}
		filters = append(filters, sel("v", op, rel.Float(-44.5)))
	}
	for _, r := range [][2]int64{{100, 120}, {7, 7}, {lo, -40}, {1990, hi}, {lo, lo}, {hi, hi},
		{120, 100}, {hi, lo}, {2000, 9000}, {lo, hi}, {0, hi}} {
		filters = append(filters, between("v", r[0], r[1]))
	}

	indexed := map[sql.CompareOp]int{}
	for _, f := range filters {
		got := appendFilterPasses(nil, col, f)
		want := appendFilterPasses(nil, plain, f)
		if len(got) != len(want) {
			t.Fatalf("%s: %d passes with the index, %d without", f, len(got), len(want))
		}
		for _, span := range [][2]int{{0, n}, {0, 4096}, {4096, 12288}, {12288, n}} {
			for pi := range got {
				a, b := vec.NewBitmap(n), vec.NewBitmap(n)
				got[pi](a, span[0], span[1])
				want[pi](b, span[0], span[1])
				for w := span[0] / vec.WordBits; w < vec.NumWords(span[1]); w++ {
					if a.Words()[w] != b.Words()[w] {
						t.Fatalf("%s rows [%d, %d): word %d is %#x through the index, %#x through the kernel",
							f, span[0], span[1], w, a.Words()[w], b.Words()[w])
					}
				}
			}
		}
		// Which path was taken: count the matches and ask the index what
		// the compile site asked it.
		if f.Value.Kind() != rel.KindInt {
			continue
		}
		l, h, ok := f.Value.AsInt(), int64(0), true
		if f.Op == sql.OpBetween {
			h = f.Value2.AsInt()
		} else {
			op, _ := vecOp(f.Op)
			l, h, ok = cmpInterval(op, l)
		}
		if !ok {
			continue // Ne: not one interval, never indexed
		}
		bm := vec.NewBitmap(n)
		want[0](bm, 0, n)
		selective := bm.Count(0, n)*2 <= n
		if answered := col.IndexRange(l, h) != nil; answered != selective {
			t.Errorf("%s matches %d of %d rows: answered by the index = %v", f, bm.Count(0, n), n, answered)
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
// sql.EvalSelection accepts, through both entry points, cold and warm.
// Each case is a loose and a tight instance of one filter shape; the
// cases mix indexed passes with kernel passes in one conjunction and
// include a range matching everything and one matching nothing.
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
	}
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
			for x, id := range want[pi] {
				if sub.cols[0].Ints[x] != id {
					t.Fatalf("%s [%s] instance %d: selection[%d] = row %d, want row %d", name, label, pi, x, sub.cols[0].Ints[x], id)
				}
			}
		}
		single, batch := NewSkeletonCache(0, 0), NewSkeletonCache(0, 0)
		for _, label := range []string{"cold", "warm"} {
			for pi, p := range plans {
				got, err := countSkeletonCfg(ctx, p, cat.Table, single, SkelConfig{})
				if err != nil {
					t.Fatalf("%s [%s single]: %v", name, label, err)
				}
				check(label+" single", pi, got, single)
			}
			bps := []BatchPlan{prep(plans[0], batch), prep(plans[1], batch)}
			got, perPlan, err := countBatch(ctx, bps, cat.Table, SkelConfig{})
			if err != nil || perPlan[0] != nil || perPlan[1] != nil {
				t.Fatalf("%s [%s batch]: %v / %v", name, label, err, perPlan)
			}
			for pi := range plans {
				check(label+" batch", pi, got[pi], batch)
			}
		}
	}
}
