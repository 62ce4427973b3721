package executor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
)

// --- Generated data and queries ---

// bagCatalog builds tables e0 (empty) and e1..e4 whose every base row is
// held dups times, scattered: k int64 with MinInt64 / MaxInt64, f float64
// with NaN, ±Inf and ±0 (and integers, for int = float keys), n int64 with
// NULLs, s string, v the int64 filter column. e1 has 160 base
// rows, so its columns cross the sorted-index threshold (4096 rows) at
// dups=27 and stay under it below.
func bagCatalog(t testing.TB, dups int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	schema := func() *rel.Schema {
		return rel.NewSchema(rel.Column{Name: "k", Kind: rel.KindInt}, rel.Column{Name: "f", Kind: rel.KindFloat},
			rel.Column{Name: "n", Kind: rel.KindInt}, rel.Column{Name: "s", Kind: rel.KindString},
			rel.Column{Name: "v", Kind: rel.KindInt})
	}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	rng := rand.New(rand.NewSource(int64(dups)))
	cat.MustAddTable(storage.NewTable("e0", schema()))
	for ti, base := range []int{160, 24, 20, 16} {
		var rows []rel.Row
		for i := 0; i < base; i++ {
			k := rel.Int(int64((i*7 + ti) % 40))
			switch i % 12 {
			case 0:
				k = rel.Int(math.MinInt64)
			case 6:
				k = rel.Int(math.MaxInt64)
			}
			f := rel.Float(float64((i+ti)%6) + 0.5*float64(i%2))
			if i%9 < len(floats) {
				f = rel.Float(floats[i%9])
			}
			n := rel.Int(int64(i % 6))
			if i%5 == 0 {
				n = rel.Null
			}
			row := rel.Row{k, f, n, rel.String_(strings.Repeat("s", i%5)), rel.Int(int64(i % 100))}
			for d := 0; d < dups; d++ {
				rows = append(rows, row)
			}
		}
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		tab := storage.NewTable(fmt.Sprintf("e%d", ti+1), schema())
		for _, row := range rows {
			tab.MustAppend(row)
		}
		cat.MustAddTable(tab)
	}
	return cat
}

// bagShape is one generated query shape over bagCatalog's tables.
type bagShape struct {
	name   string
	tables []string
	joins  []sql.JoinPred
}

func bagShapes() []bagShape {
	j := func(lt, lc, rt, rc string) sql.JoinPred { return sql.JoinPred{Left: ref(lt, lc), Right: ref(rt, rc)} }
	return []bagShape{
		{"chain over int, float and nullable keys", []string{"e1", "e2", "e3", "e4"},
			[]sql.JoinPred{j("e1", "k", "e2", "k"), j("e2", "f", "e3", "f"), j("e3", "n", "e4", "n")}},
		{"star with a string key", []string{"e1", "e2", "e3", "e4"},
			[]sql.JoinPred{j("e1", "k", "e2", "k"), j("e1", "f", "e3", "f"), j("e1", "s", "e4", "s")}},
		{"cycle", []string{"e2", "e3", "e4"},
			[]sql.JoinPred{j("e2", "k", "e3", "k"), j("e3", "k", "e4", "k"), j("e4", "k", "e2", "k")}},
		{"int = float key", []string{"e2", "e3", "e4"},
			[]sql.JoinPred{j("e2", "n", "e3", "f"), j("e3", "k", "e4", "k")}},
		{"empty input", []string{"e0", "e2", "e3"},
			[]sql.JoinPred{j("e0", "k", "e2", "k"), j("e2", "k", "e3", "k")}},
	}
}

// query instantiates the shape over its first n tables with `v BETWEEN lo
// AND hi` on e1 and e2.
func (bs bagShape) query(n int, lo, hi int64) *sql.Query {
	q := &sql.Query{CountStar: true}
	in := map[string]bool{}
	for _, name := range bs.tables[:min(n, len(bs.tables))] {
		in[name] = true
		q.Tables = append(q.Tables, sql.TableRef{Name: name, Alias: name})
		if name == "e1" || name == "e2" {
			q.Selections = append(q.Selections,
				sql.Selection{Col: ref(name, "v"), Op: sql.OpBetween, Value: rel.Int(lo), Value2: rel.Int(hi)})
		}
	}
	for _, p := range bs.joins {
		if in[p.Left.Table] && in[p.Right.Table] {
			q.Joins = append(q.Joins, p)
		}
	}
	return q
}

// bagTree joins q's scans in a random order and shape: repeatedly two
// subtrees some predicate connects, either way round.
func bagTree(rng *rand.Rand, cat *catalog.Catalog, q *sql.Query) *plan.Plan {
	var parts []plan.Node
	for _, tr := range q.Tables {
		parts = append(parts, skelScan(cat, q, tr.Alias))
	}
	for len(parts) > 1 {
		a, b := rng.Intn(len(parts)), rng.Intn(len(parts))
		if a == b {
			continue
		}
		jn := skelJoin(q, parts[a], parts[b])
		if len(jn.Preds) == 0 {
			continue
		}
		parts[a] = jn
		parts = slices.Delete(parts, b, b+1)
	}
	return &plan.Plan{Root: parts[0], Query: q}
}

// --- Comparing sub-results ---

// sameCol reports byte identity of two columns (floats by bit pattern:
// NaN is not == itself).
func sameCol(a, b *storage.ColData) bool {
	bitsOf := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	return a.Kind == b.Kind && slices.Equal(a.Ints, b.Ints) && slices.Equal(bitsOf(a.Floats), bitsOf(b.Floats)) &&
		slices.Equal(a.Strs, b.Strs) && slices.Equal(a.Nulls, b.Nulls)
}

func sameSub(a, b *subResult) bool {
	if a.count != b.count || a.total != b.total || !slices.Equal(a.w, b.w) || len(a.cols) != len(b.cols) {
		return false
	}
	for k := range a.cols {
		if !sameCol(&a.cols[k], &b.cols[k]) {
			return false
		}
	}
	return true
}

// cachedSubs snapshots a cache's sub-results by key.
func cachedSubs(c *SkeletonCache) map[string]*subResult {
	out := map[string]*subResult{}
	for k, el := range c.subs {
		out[k] = el.Value.(*skelCacheEntry).sub
	}
	return out
}

// checkBag asserts a sub-result's own invariants: Σ w is the logical
// count, w is there only when some row counts more than once, and
// compacting it again changes nothing.
func checkBag(t *testing.T, label string, sub *subResult) {
	t.Helper()
	sum := int64(sub.count)
	if sub.w != nil {
		sum = 0
		for _, w := range sub.w {
			if w < 1 {
				t.Fatalf("%s: weight %d", label, w)
			}
			sum += w
		}
		if len(sub.w) != sub.count || sum == int64(sub.count) {
			t.Fatalf("%s: %d weights summing to %d over %d rows", label, len(sub.w), sum, sub.count)
		}
	}
	if sum != sub.total {
		t.Fatalf("%s: weights sum to %d, logical count %d", label, sum, sub.total)
	}
	rows := make([]int32, sub.count)
	for i := range rows {
		rows[i] = int32(i)
	}
	srcs := make([]colSrc, len(sub.cols))
	for k := range srcs {
		srcs[k] = colSrc{&sub.cols[k], rows}
	}
	again := newSub(new(skelScratch), srcs, sub.count, bagWeights{lw: sub.w, lrows: rows})
	if !sameSub(sub, again) {
		t.Fatalf("%s: compact is not idempotent: %d rows / %d, again %d / %d", label, sub.count, sub.total, again.count, again.total)
	}
}

// exactCharge finds, by bisection over cold uncached runs, the memory
// budget at which p stops breaching: its charge.
func exactCharge(t *testing.T, cat *catalog.Catalog, p *plan.Plan) int64 {
	t.Helper()
	lo, hi := int64(0), int64(1)<<26 // breaches at lo (or lo = 0), passes at hi
	for lo+1 < hi {
		mid := (lo + hi) / 2
		_, err := countSkeletonCfg(context.Background(), p, cat.Table, nil, mid)
		switch {
		case err == nil:
			hi = mid
		case errors.Is(err, ErrMemoryBudget):
			lo = mid
		default:
			t.Fatal(err)
		}
	}
	return hi
}

// TestCompactedCountsMatchVolcano: over generated chain / star / cyclic
// queries on data whose every row is held 1, 3 or 27 times — NULL, NaN,
// ±0, MinInt64 / MaxInt64, int = float keys, an empty table, columns either side of the sorted-index threshold — and
// under random join trees, both entry points report the general
// executor's per-node counts on a cold and a warm cache; both leave
// byte-identical compacted sub-results behind; each plan's memory charge
// is the same on a miss and on a hit; a join set counts the
// same under every tree that produces it; and every sub-result stored
// satisfies Σ w = count and compact(compact(x)) = compact(x).
func TestCompactedCountsMatchVolcano(t *testing.T) {
	ctx := context.Background()
	weighted := 0
	for _, dups := range []int{1, 3, 27} {
		cat := bagCatalog(t, dups)
		rng := rand.New(rand.NewSource(7))
		for _, bs := range bagShapes() {
			ntables := 4
			if dups == 27 {
				ntables = 3 // the general executor enumerates every joined row
			}
			// Two instances of one shape, differing only in constants.
			loose, tight := bs.query(ntables, 10, 60), bs.query(ntables, 12, 40)
			setCounts := map[string]int64{}
			for tree := 0; tree < 2; tree++ {
				plans := []*plan.Plan{bagTree(rng, cat, loose), bagTree(rng, cat, tight)}
				label := fmt.Sprintf("dups=%d %s tree %d", dups, bs.name, tree)
				want := make([]map[plan.Node]int64, len(plans))
				charges := make([]int64, len(plans))
				// The reference: the two plans in turn through one cache (a
				// set both produce keeps the first tree's row order).
				refCache := NewSkeletonCache(0, 0)
				for pi, p := range plans {
					res, err := Run(p, cat, Options{CountOnly: true})
					if err != nil {
						t.Fatalf("%s: volcano: %v", label, err)
					}
					want[pi] = res.NodeRows
					if _, err := countSkeletonCfg(ctx, p, cat.Table, refCache, 0); err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					charges[pi] = exactCharge(t, cat, p)
				}
				refs := cachedSubs(refCache)
				for key, sub := range refs {
					checkBag(t, label+" "+key, sub)
					if sub.w != nil {
						weighted++
					}
				}
				// A join set's count does not depend on the tree.
				steps, err := compileOnly(t, plans[0].Query, nil, 0).compile(plans[0].Root)
				if err != nil {
					t.Fatalf("%s: compile: %v", label, err)
				}
				for i := range steps {
					c := want[0][steps[i].Node()]
					if prev, ok := setCounts[steps[i].Set.Key]; ok && prev != c {
						t.Fatalf("%s: set %s counts %d, an earlier tree %d", label, steps[i].Set.Key, c, prev)
					}
					setCounts[steps[i].Set.Key] = c
				}
				check := func(cfgLabel string, pi int, got map[plan.Node]int64) {
					t.Helper()
					plan.Walk(plans[pi].Root, func(n plan.Node) {
						if got[n] != want[pi][n] {
							t.Fatalf("%s [%s] instance %d node %v: skeleton %d, volcano %d", label, cfgLabel, pi, n.Aliases(), got[n], want[pi][n])
						}
					})
				}
				sameAsRef := func(cfgLabel string, c *SkeletonCache) {
					t.Helper()
					got := cachedSubs(c)
					for key, r := range refs {
						if g, ok := got[key]; !ok || len(got) != len(refs) || !sameSub(g, r) {
							t.Fatalf("%s [%s]: sub-result %s differs from the reference (stored: %v)", label, cfgLabel, key, ok)
						}
					}
				}
				single, batch := NewSkeletonCache(0, 0), NewSkeletonCache(0, 0)
				for _, cl := range []string{"cold", "warm"} {
					for pi, p := range plans {
						got, err := countSkeletonCfg(ctx, p, cat.Table, single, 0)
						if err != nil {
							t.Fatalf("%s [%s single]: %v", label, cl, err)
						}
						check(cl+" single", pi, got)
					}
					sameAsRef(cl+" single", single)
					got, err := countBatch(ctx, plans, cat.Table, batch, 0)
					if err != nil {
						t.Fatalf("%s [%s batch]: %v", label, cl, err)
					}
					check(cl+" batch", 0, got[0])
					check(cl+" batch", 1, got[1])
					sameAsRef(cl+" batch", batch)
					if cl == "warm" {
						continue // the charge is probed once, after the cold run filled the cache
					}
					// The charge found cold is the charge here: on a miss
					// (no cache) and on a hit.
					for pi, p := range plans {
						for _, c := range []*SkeletonCache{nil, single} {
							for _, b := range []int64{charges[pi] - 1, charges[pi]} {
								if b <= 0 {
									continue
								}
								_, err := countSkeletonCfg(ctx, p, cat.Table, c, b)
								if (err != nil && !errors.Is(err, ErrMemoryBudget)) || errors.Is(err, ErrMemoryBudget) != (b < charges[pi]) {
									t.Fatalf("%s [%s cached=%v] instance %d: budget %d against a charge of %d: %v",
										label, cl, c != nil, pi, b, charges[pi], err)
								}
							}
						}
					}
				}
			}
		}
	}
	if weighted == 0 {
		t.Fatal("no sub-result carried weights")
	}
}

// TestJoinMethodsAgreeOnNaN pins the float order every join method shares
// (rel.cmpFloat): NaN equals NaN and nothing else, -0.0 equals 0.0, ±Inf
// equal themselves — so the general executor's nested-loop, hash and
// merge joins and the skeleton count the same pairs on a float key column
// holding all of them, with duplicates.
func TestJoinMethodsAgreeOnNaN(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // another NaN payload
	keys := []float64{math.NaN(), nan2, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, 1.5, math.NaN()}
	cat := catalog.New()
	for _, name := range []string{"lf", "rf"} {
		tab := storage.NewTable(name, rel.NewSchema(rel.Column{Name: "k", Kind: rel.KindFloat}))
		for _, k := range keys {
			tab.MustAppend(rel.Row{rel.Float(k)})
		}
		cat.MustAddTable(tab)
	}
	lt, _ := cat.Table("lf")
	rt, _ := cat.Table("rf")
	l := &plan.ScanNode{Alias: "lf", Table: "lf", Access: plan.SeqScan, OutSchema: lt.Schema()}
	r := &plan.ScanNode{Alias: "rf", Table: "rf", Access: plan.SeqScan, OutSchema: rt.Schema()}
	preds := []sql.JoinPred{{Left: ref("lf", "k"), Right: ref("rf", "k")}}
	// 3 NaNs x 3 NaNs, ±0 x ±0, 1.5 x 1.5 twice each, the infinities once.
	const want = 9 + 4 + 4 + 2
	for kind, c := range runJoinKinds(t, cat, l, r, preds) {
		if c != want {
			t.Errorf("%v: %d pairs, want %d", kind, c, want)
		}
	}
	p := &plan.Plan{
		Root: &plan.JoinNode{Kind: plan.HashJoin, Left: l, Right: r, Preds: preds, OutSchema: l.Schema().Concat(r.Schema())},
		Query: &sql.Query{
			Tables: []sql.TableRef{{Name: "lf", Alias: "lf"}, {Name: "rf", Alias: "rf"}}, Joins: preds, CountStar: true,
		},
	}
	cache := NewSkeletonCache(0, 0)
	counts, err := countSkeleton(p, cat.Table, cache)
	if err != nil || counts[p.Root] != want {
		t.Errorf("skeleton: %d pairs (%v), want %d", counts[p.Root], err, want)
	}
	// Grouping is by representation, finer than Equal: the two NaN
	// payloads and the two zeros stay apart, the repeats fold.
	for key, sub := range cachedSubs(cache) {
		if len(sub.cols) == 1 && (sub.count != 7 || sub.total != 9) {
			t.Errorf("%s: %d rows counting %d, want 7 counting 9", key, sub.count, sub.total)
		}
	}
}

// TestCountOverflowFailsValidation: a five-way self-similar join whose
// logical count is 2^65 returns ErrCountOverflow — not a panic, cold and
// against what the failed run left cached — and the overflowing join
// stores nothing.
func TestCountOverflowFailsValidation(t *testing.T) {
	cat := catalog.New()
	q := &sql.Query{CountStar: true}
	for i := 1; i <= 5; i++ {
		name := fmt.Sprintf("o%d", i)
		tab := storage.NewTable(name, rel.NewSchema(rel.Column{Name: "k", Kind: rel.KindInt}))
		for r := 0; r < 1<<13; r++ {
			tab.MustAppend(rel.Row{rel.Int(7)})
		}
		cat.MustAddTable(tab)
		q.Tables = append(q.Tables, sql.TableRef{Name: name, Alias: name})
		if i > 1 {
			q.Joins = append(q.Joins, sql.JoinPred{Left: ref(fmt.Sprintf("o%d", i-1), "k"), Right: ref(name, "k")})
		}
	}
	var root plan.Node = skelScan(cat, q, "o1")
	for i := 2; i <= 5; i++ {
		root = skelJoin(q, root, skelScan(cat, q, fmt.Sprintf("o%d", i)))
	}
	p := &plan.Plan{Root: root, Query: q}
	ctx := context.Background()
	cache := NewSkeletonCache(0, 0)
	for _, state := range []string{"cold", "warm"} {
		if _, err := countSkeletonCfg(ctx, p, cat.Table, cache, 0); !errors.Is(err, ErrCountOverflow) || errors.Is(err, ErrValidationPanic) {
			t.Fatalf("%s: %v, want ErrCountOverflow for the plan", state, err)
		}
	}
	// Four of the five scans' and three of the four joins' results fit.
	subs := cachedSubs(cache)
	if len(subs) != 8 {
		t.Fatalf("%d sub-results cached, want the 8 that fit", len(subs))
	}
	for key, sub := range subs {
		if sub.count != 1 || sub.total != 1<<(bits.Len64(uint64(sub.total))-1) || (bits.Len64(uint64(sub.total))-1)%13 != 0 {
			t.Fatalf("%s holds %d rows counting %d, want one row counting a power of 2^13", key, sub.count, sub.total)
		}
	}
}

// naiveCompact is compact's oracle: group whole rows by their rendered
// representation, in first-occurrence order.
func naiveCompact(cols []storage.ColData, n int, w []int64) (first []int, weights []int64) {
	seen := map[string]int{}
	for x := 0; x < n; x++ {
		var key strings.Builder
		for k := range cols {
			c := &cols[k]
			switch {
			case c.IsNull(x):
				key.WriteString("N|")
			case c.Kind == rel.KindFloat:
				fmt.Fprintf(&key, "f%x|", math.Float64bits(c.Floats[x]))
			case c.Kind == rel.KindString:
				fmt.Fprintf(&key, "s%q|", c.Strs[x])
			default:
				fmt.Fprintf(&key, "i%d|", c.Ints[x])
			}
		}
		wx := int64(1)
		if w != nil {
			wx = w[x]
		}
		if g, ok := seen[key.String()]; ok {
			weights[g] += wx
			continue
		}
		seen[key.String()] = len(first)
		first, weights = append(first, x), append(weights, wx)
	}
	return first, weights
}

// checkCompact runs compact over the rows of cols (through a permuting
// row-id vector, weighted by w when set) and compares it with the oracle:
// either it gave up — every row as it stands — or it holds exactly the
// oracle's groups, in order, with the oracle's weights.
func checkCompact(t testing.TB, cols []storage.ColData, n int, w []int64) {
	t.Helper()
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	srcs := make([]colSrc, len(cols))
	for k := range srcs {
		srcs[k] = colSrc{&cols[k], rows}
	}
	bw := bagWeights{}
	if w != nil {
		bw = bagWeights{lw: w, lrows: rows}
	}
	sub := newSub(new(skelScratch), srcs, n, bw)
	first, weights := naiveCompact(cols, n, w)
	var total int64
	for _, wx := range weights {
		total += wx
	}
	if sub.total != total {
		t.Fatalf("compact counts %d, oracle %d", sub.total, total)
	}
	if len(cols) == 0 {
		if want := min(total, 1); int64(sub.count) != want {
			t.Fatalf("the empty tuple %d times is %d rows, want %d", total, sub.count, want)
		}
		return
	}
	if sub.count == n && n > len(first) { // gave up
		first, weights = first[:0], weights[:0]
		for x := 0; x < n; x++ {
			first = append(first, x)
			weights = append(weights, 1)
			if w != nil {
				weights[x] = w[x]
			}
		}
		if len(naiveFirstPrefix(cols, w)) <= giveUpRows-giveUpRows/giveUpShare {
			t.Fatalf("compact gave up on a prefix with repeats")
		}
	}
	if sub.count != len(first) {
		t.Fatalf("compact kept %d rows, oracle %d", sub.count, len(first))
	}
	for i, x := range first {
		got := int64(1)
		if sub.w != nil {
			got = sub.w[i]
		}
		if got != weights[i] {
			t.Fatalf("row %d weighs %d, oracle %d", i, got, weights[i])
		}
		one := []int32{int32(x)}
		for k := range cols {
			cell := cols[k].NewLike(1)
			cell.Gather(&cols[k], one)
			at := sub.cols[k].NewLike(1)
			at.Gather(&sub.cols[k], []int32{int32(i)})
			if !sameCol(&cell, &at) {
				t.Fatalf("row %d column %d is not input row %d", i, k, x)
			}
		}
	}
}

// naiveFirstPrefix is the oracle's groups over the give-up prefix.
func naiveFirstPrefix(cols []storage.ColData, w []int64) []int {
	first, _ := naiveCompact(cols, giveUpRows, w)
	return first
}

// fuzzCols decodes fuzz input into up to three columns of n rows: one
// byte a cell, drawn from a small domain per kind so tuples repeat, with
// NULLs, NaN payloads, ±0 and the int64 extremes among the values.
func fuzzCols(data []byte) (cols []storage.ColData, n int, w []int64) {
	if len(data) < 2 {
		return nil, 0, nil
	}
	ncols, kind0, weighted := int(data[0]%4), int(data[0]/4), data[1]&1 == 1
	data = data[2:]
	ints := []int64{0, 1, 2, 3, math.MinInt64, math.MaxInt64, -1, 7}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) ^ 1),
		math.Inf(1), math.Inf(-1), 1.5, 2}
	strs := []string{"", "a", "b", "ab", "a\x00", "é", "aa", "B"}
	width := max(ncols, 1)
	n = len(data) / width
	for k := 0; k < ncols; k++ {
		c := storage.ColData{Kind: []rel.Kind{rel.KindInt, rel.KindFloat, rel.KindString}[(kind0+k)%3]}
		nullable := k%2 == 1
		if nullable {
			c.Nulls = make([]bool, n)
		}
		for x := 0; x < n; x++ {
			b := data[x*width+k]
			null := nullable && b&8 != 0
			if null {
				c.Nulls[x] = true
				b = 0
			}
			switch c.Kind {
			case rel.KindInt:
				c.Ints = append(c.Ints, ints[b%8])
			case rel.KindFloat:
				c.Floats = append(c.Floats, floats[b%8])
			default:
				c.Strs = append(c.Strs, strs[b%8])
			}
			if null { // NULL cells hold the zero value
				switch c.Kind {
				case rel.KindInt:
					c.Ints[x] = 0
				case rel.KindFloat:
					c.Floats[x] = 0
				default:
					c.Strs[x] = ""
				}
			}
		}
		cols = append(cols, c)
	}
	if weighted {
		w = make([]int64, n)
		for x := range w {
			w[x] = 1 + int64(data[x*width]>>4)
		}
	}
	return cols, n, w
}

// FuzzCompact: compact agrees with the oracle on arbitrary column sets.
// The seed corpus (testdata/fuzz/FuzzCompact) runs in every `go test`.
func FuzzCompact(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 1, 2, 3, 1})
	f.Add([]byte{2, 1, 0x10, 0x28, 0x10, 0x28, 0x31, 0x09, 0x10, 0x28})
	f.Add([]byte{3, 1, 2, 3, 10, 2, 3, 10, 4, 5, 6, 2, 3, 10})
	f.Add([]byte{0, 1, 0xf0, 0xf0, 0x10})
	long := []byte{1, 0}
	for i := 0; i < 3*giveUpRows; i++ {
		long = append(long, byte(i%5))
	}
	f.Add(long)
	// Counting-path inputs: one NULL-free int64 column of three give-up
	// prefixes whose values 0..3, -1 and 7 span a few rows, unweighted
	// and weighted; with MinInt64 and MaxInt64 among them it takes the
	// hash path again.
	for _, cells := range [][]byte{{0, 1, 2, 3}, {6, 0, 7, 6, 3}, {4, 0, 5, 1}} {
		for _, weighted := range []byte{0, 1} {
			seq := []byte{1, weighted}
			for i := 0; i < 3*giveUpRows+7; i++ {
				seq = append(seq, cells[i*7%len(cells)]|byte(i%13)<<4)
			}
			f.Add(seq)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cols, n, w := fuzzCols(data)
		checkCompact(t, cols, n, w)
	})
}

// TestCompactMatchesOracle drives the same check with generated inputs
// large enough to grow the slot table and to meet the give-up prefix on
// both sides of its threshold.
func TestCompactMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, giveUpRows - 1, giveUpRows, giveUpRows + 1, 5000} {
		for _, distinct := range []int{1, 7, giveUpRows - giveUpRows/giveUpShare, giveUpRows, 4000} {
			for _, weighted := range []bool{false, true} {
				k := storage.ColData{Kind: rel.KindInt, Ints: make([]int64, n)}
				s := storage.ColData{Kind: rel.KindString, Strs: make([]string, n), Nulls: make([]bool, n)}
				var w []int64
				for x := 0; x < n; x++ {
					v := rng.Intn(distinct)
					if x < distinct {
						v = x // the prefix sees as many distinct rows as there are
					}
					k.Ints[x] = int64(v) * 1_000_003
					s.Strs[x] = fmt.Sprint(v % 3)
					s.Nulls[x] = v%5 == 0
					if s.Nulls[x] {
						s.Strs[x] = ""
					}
					if weighted {
						w = append(w, int64(1+rng.Intn(3)))
					}
				}
				checkCompact(t, []storage.ColData{k}, n, w)
				checkCompact(t, []storage.ColData{k, s}, n, w)
			}
		}
	}
}

// intSeq is an n-row NULL-free int64 column whose row x holds val(x).
func intSeq(n int, val func(x int) int64) storage.ColData {
	c := storage.ColData{Kind: rel.KindInt, Ints: make([]int64, n)}
	for x := range c.Ints {
		c.Ints[x] = val(x)
	}
	return c
}

// compactPath compacts the n-row sequence reading cols at rows, weighted
// by w at rows when w is set, with the counting path allowed or not. It
// reports whether the counting path grouped it and the overflow, if any.
func compactPath(cols []storage.ColData, rows []int32, w []int64, counting bool) (sub *subResult, counted bool, err error) {
	useCounting = counting
	defer func() {
		useCounting = true
		if r := recover(); r != nil {
			if err, _ = r.(error); !errors.Is(err, ErrCountOverflow) {
				panic(r)
			}
		}
	}()
	srcs := make([]colSrc, len(cols))
	for k := range srcs {
		srcs[k] = colSrc{&cols[k], rows}
	}
	bw := bagWeights{}
	if w != nil {
		bw = bagWeights{lw: w, lrows: rows}
	}
	sc := new(skelScratch)
	sub = newSub(sc, srcs, len(rows), bw)
	return sub, len(sc.cnt) > 0, nil
}

// iota32 is the row-id vector 0..n-1.
func iota32(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// TestCompactCountingPathMatchesOracle: the inputs of the counting path
// against compact's oracle — a lone NULL-free int64 column of more than
// twice the give-up prefix (and of exactly twice: hashed) whose values
// span just under denseSpan·n (counted) and exactly denseSpan·n
// (hashed), negative values, MinInt64..MaxInt64 (hashed: the span is
// taken unsigned), unweighted and weighted, and a prefix just under and
// at the give-up threshold — each checked to take the path its length,
// span and prefix say.
func TestCompactCountingPathMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type tc struct {
		name    string
		n       int
		base    int64
		span    uint64 // max - min, as unsigned
		counted bool
	}
	var cases []tc
	for _, n := range []int{2*giveUpRows + 1, 1000, 5000} {
		for _, base := range []int64{0, -7_000_000_003, 1 << 40} {
			cases = append(cases,
				tc{"span under denseSpan·n", n, base, denseSpan*uint64(n) - 1, true},
				tc{"span at denseSpan·n", n, base, denseSpan * uint64(n), false},
				tc{"a few values", n, base, 6, true})
		}
		cases = append(cases, tc{"MinInt64..MaxInt64", n, math.MinInt64, math.MaxUint64, false})
	}
	// No more rows past the prefix than it holds: hashed, whatever the span.
	cases = append(cases, tc{"a few values, 2·giveUpRows rows", 2 * giveUpRows, 0, 6, false},
		tc{"a few values, 2·giveUpRows+1 rows", 2*giveUpRows + 1, 0, 6, true})
	for _, c := range cases {
		// n/3 distinct values spread over the span, min and max among
		// them; every value repeats about three times, in random order.
		distinct := max(c.n/3, 2)
		pick := func(i int) int64 {
			if c.span == math.MaxUint64 {
				return []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}[i%5]
			}
			if i == distinct-1 {
				return c.base + int64(c.span)
			}
			return c.base + int64(uint64(i)*(c.span/uint64(distinct-1)))
		}
		col := intSeq(c.n, func(x int) int64 {
			switch x {
			case 3:
				return c.base
			case 5:
				return pick(distinct - 1)
			}
			return pick(rng.Intn(distinct))
		})
		if c.span != math.MaxUint64 && uint64(pick(distinct-1)-c.base) != c.span {
			t.Fatalf("%s, n=%d: the values span %d, want %d", c.name, c.n, pick(distinct-1)-c.base, c.span)
		}
		for _, weighted := range []bool{false, true} {
			var w []int64
			if weighted {
				w = make([]int64, c.n)
				for x := range w {
					w[x] = 1 + rng.Int63n(1000)
				}
			}
			checkCompact(t, []storage.ColData{col}, c.n, w)
			if _, counted, _ := compactPath([]storage.ColData{col}, iota32(c.n), w, true); counted != c.counted {
				t.Fatalf("%s, n=%d, base %d: counted %v, want %v", c.name, c.n, c.base, counted, c.counted)
			}
		}
	}
	// The give-up verdict is read off the prefix before any counting: at
	// giveUpRows-giveUpRows/giveUpShare distinct prefix values the
	// sequence is counted, one more and it is gathered as it stands.
	for _, distinct := range []int{giveUpRows - giveUpRows/giveUpShare, giveUpRows - giveUpRows/giveUpShare + 1} {
		const n = 1000
		col := intSeq(n, func(x int) int64 {
			if x < giveUpRows {
				return -int64(min(x, distinct-1))
			}
			return -int64(rng.Intn(distinct))
		})
		checkCompact(t, []storage.ColData{col}, n, nil)
		sub, counted, _ := compactPath([]storage.ColData{col}, iota32(n), nil, true)
		if gaveUp := distinct > giveUpRows-giveUpRows/giveUpShare; counted == gaveUp || (sub.count == n) != gaveUp {
			t.Fatalf("%d distinct values in the prefix: counted %v, %d rows kept", distinct, counted, sub.count)
		}
	}
}

// TestGroupingPathsAgree runs each sequence through both grouping paths —
// counting, and hashing with the counting path switched off — and
// requires identical sub-results: columns, weights, counts and order. The
// sequences are a scan's (ascending rows) and a join's (row ids repeating
// and out of order) over small-span, negative and few-valued int64
// columns, unweighted and weighted, of a few hundred to tens of thousands
// of rows; and both paths overflow alike, into ErrCountOverflow.
func TestGroupingPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	counted := 0
	for _, n := range []int{giveUpRows + 1, 1800, 40_000} {
		for _, spread := range []int{2, 3, 27} {
			for _, base := range []int64{0, -1_000_000, math.MaxInt64 - 4*40_000} {
				col := intSeq(n, func(int) int64 { return base + int64(rng.Intn(max(n/spread, 1))) })
				join := make([]int32, n) // a join's left rows: repeating, out of order
				for x := range join {
					join[x] = int32(min(x/2+rng.Intn(3), n-1))
				}
				for _, rows := range [][]int32{iota32(n), join} {
					for _, weighted := range []bool{false, true} {
						var w []int64
						if weighted {
							w = make([]int64, n)
							for x := range w {
								w[x] = 1 + rng.Int63n(1<<20)
							}
						}
						cols := []storage.ColData{col}
						a, aCounted, aErr := compactPath(cols, rows, w, true)
						b, bCounted, bErr := compactPath(cols, rows, w, false)
						if aErr != nil || bErr != nil || bCounted {
							t.Fatalf("n=%d spread %d: %v / %v, hash path counted %v", n, spread, aErr, bErr, bCounted)
						}
						if !sameSub(a, b) {
							t.Fatalf("n=%d spread %d base %d weighted %v: the paths' sub-results differ (%d rows counting %d, hashed %d counting %d)",
								n, spread, base, weighted, a.count, a.total, b.count, b.total)
						}
						if aCounted {
							counted++
						}
					}
				}
			}
		}
	}
	if counted < 30 {
		t.Fatalf("the counting path grouped %d sequences: the cases no longer exercise it", counted)
	}
	// Weights summing past MaxInt64 overflow on both paths.
	const n = 3 * giveUpRows
	col := intSeq(n, func(x int) int64 { return int64(x % 7) })
	w := make([]int64, n)
	for x := range w {
		w[x] = math.MaxInt64 / (n - 1)
	}
	for _, counting := range []bool{true, false} {
		if _, _, err := compactPath([]storage.ColData{col}, iota32(n), w, counting); !errors.Is(err, ErrCountOverflow) {
			t.Fatalf("counting path %v: %v, want ErrCountOverflow", counting, err)
		}
	}
}
