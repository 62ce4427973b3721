package executor

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
)

// The flat bucket-chained join table against the table it replaced: a
// map from the 64-bit key hash to the matching build rows in row order,
// probed with the same EqualAt check. Probe output — the (left row, right
// row) pairs, in order — must be identical on every key shape.

// joinCase is one pair of join inputs: per row, the values of the key
// columns (the same number on both sides).
type joinCase struct {
	name string
	l, r [][]rel.Value
}

func keyRows(n int, key func(i int) []rel.Value) [][]rel.Value {
	rows := make([][]rel.Value, n)
	for i := range rows {
		rows[i] = key(i)
	}
	return rows
}

func joinCases() []joinCase {
	one := func(v rel.Value) func(int) []rel.Value { return func(int) []rel.Value { return []rel.Value{v} } }
	mixed := func(i int) rel.Value {
		switch i % 4 {
		case 0:
			return rel.Int(int64(i % 12))
		case 1:
			return rel.String_(fmt.Sprintf("m%d", i%12))
		case 2:
			return rel.Float(float64(i % 12)) // equals the Int rows' values
		default:
			return rel.Null
		}
	}
	return []joinCase{
		{name: "all rows one key",
			l: keyRows(600, one(rel.Int(7))), r: keyRows(520, one(rel.Int(7)))},
		{name: "all keys distinct",
			l: keyRows(600, func(i int) []rel.Value { return []rel.Value{rel.Int(int64(i))} }),
			r: keyRows(520, func(i int) []rel.Value { return []rel.Value{rel.Int(int64((i * 7919) % 520))} })},
		{name: "every key NULL",
			l: keyRows(600, one(rel.Null)), r: keyRows(520, one(rel.Null))},
		{name: "empty build side",
			l: keyRows(600, one(rel.Int(7))), r: nil},
		{name: "int column = float column",
			l: keyRows(600, func(i int) []rel.Value { return []rel.Value{rel.Int(int64(i % 40))} }),
			r: keyRows(520, func(i int) []rel.Value {
				return []rel.Value{rel.Float(float64(i%40) + 0.5*float64(i%2))}
			})},
		{name: "two-column key with NULLs",
			l: keyRows(600, func(i int) []rel.Value {
				second := rel.Int(int64(i % 5))
				if i%11 == 0 {
					second = rel.Null
				}
				return []rel.Value{rel.Int(int64(i % 7)), second}
			}),
			r: keyRows(520, func(i int) []rel.Value {
				second := rel.Int(int64(i % 3))
				if i%13 == 0 {
					second = rel.Null // meets the left side's NULLs
				}
				return []rel.Value{rel.Int(int64(i % 7)), second}
			})},
		{name: "string key",
			l: keyRows(600, func(i int) []rel.Value { return []rel.Value{rel.String_(fmt.Sprintf("s%d", i%30))} }),
			r: keyRows(520, func(i int) []rel.Value { return []rel.Value{rel.String_(fmt.Sprintf("s%d", i%45))} })},
		{name: "mixed-kind key",
			l: keyRows(600, func(i int) []rel.Value { return []rel.Value{mixed(i)} }),
			r: keyRows(520, func(i int) []rel.Value { return []rel.Value{mixed(i + 2)} })},
		{name: "int 2^53+1 = float 2^53", // no float64 holds 2^53+1: never equal
			l: keyRows(1, one(rel.Int(1<<53+1))), r: keyRows(1, one(rel.Float(1<<53)))},
		{name: "int64 ends = floats ±2^63", // only -2^63 is an int64
			l: keyRows(40, func(i int) []rel.Value {
				return []rel.Value{rel.Int([]int64{math.MinInt64, math.MaxInt64, 1 << 53, 1<<53 + 1}[i%4])}
			}),
			r: keyRows(30, func(i int) []rel.Value {
				return []rel.Value{rel.Float([]float64{-0x1p63, 0x1p63, 0x1p53, math.Inf(1), math.NaN()}[i%5])}
			})},
	}
}

// caseTable stores one side of a case as a table: the key columns
// k0, k1, … followed by id, the row number.
func caseTable(name string, rows [][]rel.Value, nkeys int) *storage.Table {
	cols := make([]rel.Column, nkeys+1)
	for k := 0; k < nkeys; k++ {
		cols[k] = rel.Column{Name: fmt.Sprintf("k%d", k), Kind: rel.KindInt}
	}
	cols[nkeys] = rel.Column{Name: "id", Kind: rel.KindInt}
	tab := storage.NewTable(name, rel.NewSchema(cols...))
	for i, key := range rows {
		tab.MustAppend(append(append(rel.Row{}, key...), rel.Int(int64(i))))
	}
	return tab
}

// caseSub is the table's key columns as an unfiltered scan's sub-result.
func caseSub(tab *storage.Table, nkeys int) (*subResult, []int) {
	cs := tab.ColData()
	sub := &subResult{count: cs.NumRows()}
	key := make([]int, nkeys)
	for k := range key {
		sub.cols = append(sub.cols, *cs.Col(k))
		key[k] = k
	}
	return sub, key
}

// mapProbe is the parent commit's join: build a map[hash][]row over the
// right side, probe it with every left row, EqualAt deciding.
func mapProbe(l, r *subResult, key []int) (pairs pairBuf) {
	table := map[uint64][]int32{}
	for j := 0; j < r.count; j++ {
		if h, null := hashKeyAt(r.cols, key, j); !null {
			table[h] = append(table[h], int32(j))
		}
	}
	for i := 0; i < l.count; i++ {
		h, null := hashKeyAt(l.cols, key, i)
		if null {
			continue
		}
	bucket:
		for _, rrow := range table[h] {
			for _, k := range key {
				if !l.cols[k].EqualAt(i, &r.cols[k], int(rrow)) {
					continue bucket
				}
			}
			pairs.l, pairs.r = append(pairs.l, int32(i)), append(pairs.r, rrow)
		}
	}
	return pairs
}

// checkChains asserts the table's structure: every build row with a
// non-NULL key sits in exactly the chain of its own bucket, rows with a
// NULL key in none, and every chain ascends.
func checkChains(t *testing.T, name string, tb *joinTable, r *subResult, key []int) {
	t.Helper()
	if len(tb.head)&(len(tb.head)-1) != 0 || len(tb.head) < r.count || len(tb.next) != r.count {
		t.Fatalf("%s: %d buckets, %d chain slots for %d rows", name, len(tb.head), len(tb.next), r.count)
	}
	seen := make([]bool, r.count)
	for b, first := range tb.head {
		prev := int32(0)
		for rr := first; rr != 0; rr = tb.next[rr-1] {
			h, null := hashKeyAt(r.cols, key, int(rr-1))
			switch {
			case rr <= prev:
				t.Fatalf("%s: bucket %d chain does not ascend: row %d after row %d", name, b, rr-1, prev-1)
			case null || tb.bucket(h) != uint64(b):
				t.Fatalf("%s: row %d (NULL key: %v) chained in bucket %d", name, rr-1, null, b)
			}
			seen[rr-1], prev = true, rr
		}
	}
	for j, ok := range seen {
		if _, null := hashKeyAt(r.cols, key, j); ok == null {
			t.Fatalf("%s: row %d: NULL key %v, chained %v", name, j, null, ok)
		}
	}
}

// TestJoinTableMatchesMapBuild: on every key shape the flat table's
// chains are well formed and its probe returns the map-based join's pairs
// in the same order.
func TestJoinTableMatchesMapBuild(t *testing.T) {
	for _, jc := range joinCases() {
		nkeys := len(jc.l[0])
		l, key := caseSub(caseTable("l", jc.l, nkeys), nkeys)
		r, _ := caseSub(caseTable("r", jc.r, nkeys), nkeys)
		tb := buildHashTable(r, key)
		checkChains(t, jc.name, tb, r, key)
		want := mapProbe(l, r, key)
		j := joinProbe{l: l, r: r, table: tb, lkey: key, rkey: key, gather: []gatherSrc{{left: true}}}
		var got pairBuf
		n := j.probe(&got)
		if !slices.Equal(got.l, want.l) || !slices.Equal(got.r, want.r) {
			t.Errorf("%s: %d pairs differ from the map-based join's %d", jc.name, len(got.l), len(want.l))
		}
		if n != int64(len(want.l)) {
			t.Errorf("%s: probe counted %d matches, want %d", jc.name, n, len(want.l))
		}
	}
}

// TestJoinTableCollisionRejected: distinct keys forced into one bucket
// share a chain, in ascending row order, and EqualAt tells them apart —
// each probe key matches only its own rows.
func TestJoinTableCollisionRejected(t *testing.T) {
	// A 4-row build side has 4 buckets: among keys 0..63 some bucket
	// holds at least two distinct keys. Take the first such pair.
	probeTable := &joinTable{head: make([]int32, 4), shift: 62}
	byBucket := map[uint64]int64{}
	a, b := int64(-1), int64(-1)
	for k := int64(0); k < 64 && a < 0; k++ {
		h, _ := hashKeyAt(intSub(1, func(int) int64 { return k }).cols, []int{0}, 0)
		if other, ok := byBucket[probeTable.bucket(h)]; ok {
			a, b = other, k
		}
		byBucket[probeTable.bucket(h)] = k
	}
	if a < 0 {
		t.Fatal("no two of 64 keys share one of 4 buckets")
	}
	keys := []int64{a, b, a, b}
	r := intSub(4, func(i int) int64 { return keys[i] })
	tb := buildHashTable(r, []int{0})
	checkChains(t, "collision", tb, r, []int{0})
	h, _ := hashKeyAt(r.cols, []int{0}, 0)
	var chain []int32
	for rr := tb.head[tb.bucket(h)]; rr != 0; rr = tb.next[rr-1] {
		chain = append(chain, rr-1)
	}
	if !slices.Equal(chain, []int32{0, 1, 2, 3}) {
		t.Fatalf("keys %d and %d share a bucket, chain = %v, want rows 0..3 ascending", a, b, chain)
	}
	for _, nullable := range []bool{false, true} { // the typed fast path and the generic path
		l := intSub(2, func(i int) int64 { return keys[i] })
		if nullable {
			l.cols[0].Nulls = make([]bool, 2)
		}
		j := joinProbe{l: l, r: r, table: tb, lkey: []int{0}, rkey: []int{0}, gather: []gatherSrc{{left: true}}}
		var pb pairBuf
		j.probe(&pb)
		if !slices.Equal(pb.l, []int32{0, 0, 1, 1}) || !slices.Equal(pb.r, []int32{0, 2, 1, 3}) {
			t.Errorf("nullable=%v: pairs (%v, %v), want left 0 with rows 0,2 and left 1 with rows 1,3", nullable, pb.l, pb.r)
		}
	}
}

// TestJoinTablePairsThroughEngines: the same cases through the skeleton
// engine's entry point, Prepared.Count. The join l ⋈ r feeds two
// further joins on l.id and r.id, so its cached sub-result carries exactly
// the probe's (left, right) pairs as columns; they must equal the
// map-based join's, computed cold and served warm.
func TestJoinTablePairsThroughEngines(t *testing.T) {
	ctx := context.Background()
	for _, jc := range joinCases() {
		nkeys := len(jc.l[0])
		ids := func(n int) [][]rel.Value {
			return keyRows(n, func(i int) []rel.Value { return []rel.Value{rel.Int(int64(i))} })
		}
		cat := catalog.New()
		cat.MustAddTable(caseTable("l", jc.l, nkeys))
		cat.MustAddTable(caseTable("r", jc.r, nkeys))
		cat.MustAddTable(caseTable("x", ids(len(jc.l)), 1))
		cat.MustAddTable(caseTable("y", ids(len(jc.r)), 1))
		q := &sql.Query{CountStar: true, Joins: []sql.JoinPred{
			{Left: ref("l", "id"), Right: ref("x", "k0")},
			{Left: ref("r", "id"), Right: ref("y", "k0")},
		}}
		for _, name := range []string{"l", "r", "x", "y"} {
			q.Tables = append(q.Tables, sql.TableRef{Name: name, Alias: name})
		}
		for k := 0; k < nkeys; k++ {
			col := fmt.Sprintf("k%d", k)
			q.Joins = append(q.Joins, sql.JoinPred{Left: ref("l", col), Right: ref("r", col)})
		}
		lr := skelJoin(q, skelScan(cat, q, "l"), skelScan(cat, q, "r"))
		p := &plan.Plan{Query: q, Root: skelJoin(q, skelJoin(q, lr, skelScan(cat, q, "x")), skelScan(cat, q, "y"))}

		lt, _ := cat.Table("l")
		rt, _ := cat.Table("r")
		l, key := caseSub(lt, nkeys)
		r, _ := caseSub(rt, nkeys)
		want := mapProbe(l, r, key)

		cache := NewSkeletonCache(0, 0)
		for _, state := range []string{"cold", "warm"} {
			label := fmt.Sprintf("%s [%s]", jc.name, state)
			counts, err := countSkeletonCfg(ctx, p, cat.Table, cache, 0)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if counts[lr] != int64(len(want.l)) || counts[p.Root] != int64(len(want.l)) {
				t.Errorf("%s: l⋈r counted %d, root %d, want %d", label, counts[lr], counts[p.Root], len(want.l))
			}
			refs := boundaryColumns(q, lr.Aliases())
			sub, ok := cache.getSub(subKey(testPrefix, subtreeSig(lr), refs))
			if !ok || len(sub.cols) != 2 {
				t.Fatalf("%s: l⋈r not cached with its two id columns", label)
			}
			for x := range want.l {
				if sub.cols[0].Ints[x] != int64(want.l[x]) || sub.cols[1].Ints[x] != int64(want.r[x]) {
					t.Fatalf("%s: pair %d is (%d, %d), the map-based join's is (%d, %d)", label,
						x, sub.cols[0].Ints[x], sub.cols[1].Ints[x], want.l[x], want.r[x])
				}
			}
		}
	}
}

// TestJoinCasesThroughVolcano: every Volcano join operator counts each
// case's l ⋈ r as the map-based join does — one key rule for all of
// them, under which NULL never matches, not even NULL.
func TestJoinCasesThroughVolcano(t *testing.T) {
	for _, jc := range joinCases() {
		nkeys := len(jc.l[0])
		lt, rt := caseTable("l", jc.l, nkeys), caseTable("r", jc.r, nkeys)
		if _, err := rt.CreateIndex("k0"); err != nil {
			t.Fatal(err)
		}
		cat := catalog.New()
		cat.MustAddTable(lt)
		cat.MustAddTable(rt)
		var preds []sql.JoinPred
		for k := 0; k < nkeys; k++ {
			col := fmt.Sprintf("k%d", k)
			preds = append(preds, sql.JoinPred{Left: ref("l", col), Right: ref("r", col)})
		}
		l, key := caseSub(lt, nkeys)
		r, _ := caseSub(rt, nkeys)
		want := int64(len(mapProbe(l, r, key).l))
		for _, kind := range []plan.JoinKind{plan.NestedLoop, plan.HashJoin, plan.MergeJoin, plan.IndexNestedLoop} {
			inner := scanNode(cat, "r")
			if kind == plan.IndexNestedLoop {
				inner.Access, inner.IndexColumn = plan.IndexScan, "k0"
			}
			p := &plan.Plan{Query: &sql.Query{CountStar: true}, Root: joinNode(kind, scanNode(cat, "l"), inner, preds...)}
			res, err := Run(p, cat, Options{CountOnly: true})
			if err != nil {
				t.Fatalf("%s [%v]: %v", jc.name, kind, err)
			}
			if res.Count != want {
				t.Errorf("%s [%v]: %d rows, the map-based join's %d", jc.name, kind, res.Count, want)
			}
		}
	}
}

// TestJoinTableBuildAllocs: a build allocates the table and its two
// slices, whatever the row count and however many distinct keys.
func TestJoinTableBuildAllocs(t *testing.T) {
	for _, n := range []int{1_000, 100_000} {
		for _, keys := range []int{1, n} {
			r := intSub(n, func(i int) int64 { return int64(i % keys) })
			if allocs := testing.AllocsPerRun(3, func() { buildHashTable(r, []int{0}) }); allocs > 3 {
				t.Errorf("build of %d rows / %d keys: %.0f allocations, want at most 3", n, keys, allocs)
			}
		}
	}
}
