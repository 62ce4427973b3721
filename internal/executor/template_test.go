package executor

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/faultinject"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
)

// tmplScanOf canonicalizes the t1 scan of q for fingerprint tests; the
// skelCatalog schema is (k, k2, v), so every filter column sits at
// schema position 2.
func tmplScanOf(t *testing.T, cat *catalog.Catalog, q *sql.Query, alias string) (scanTemplate, bool) {
	t.Helper()
	sc := skelScan(cat, q, alias)
	pos := make([]int, len(sc.Filters))
	for i := range pos {
		pos[i] = 2
	}
	return scanTemplateOf(sc, nil, pos)
}

// TestScanTemplateFingerprint: instances of one template — identical
// structure, columns, operators; different constants — must produce the
// same signature and fingerprint, while changing a constant's type, the
// operator, or the boundary-column set must change the signature.
func TestScanTemplateFingerprint(t *testing.T) {
	cat := skelCatalog(t, 1, 50)

	a, okA := tmplScanOf(t, cat, skelQueryFiltered(50), "t1")
	b, okB := tmplScanOf(t, cat, skelQueryFiltered(99), "t1")
	if !okA || !okB {
		t.Fatal("filtered scans must canonicalize")
	}
	if a.sig != b.sig || a.fp != b.fp {
		t.Fatalf("same template, different constants: sig %q fp %d vs sig %q fp %d",
			a.sig, a.fp, b.sig, b.fp)
	}
	if a.consts[0].Equal(b.consts[0]) {
		t.Fatal("constant vectors must carry the instance constants")
	}

	// Constant type is template identity: Int vs Float constants compile
	// different kernels, so they must not share.
	qf := skelQueryFiltered(50)
	qf.Selections[0].Value = rel.Float(50)
	f, okF := tmplScanOf(t, cat, qf, "t1")
	if !okF {
		t.Fatal("float-filtered scan must canonicalize")
	}
	if f.sig == a.sig {
		t.Fatal("constant type change did not change the signature")
	}

	// Operator is template identity.
	qop := skelQueryFiltered(50)
	qop.Selections[0].Op = sql.OpLe
	le, okLe := tmplScanOf(t, cat, qop, "t1")
	if !okLe {
		t.Fatal("<=-filtered scan must canonicalize")
	}
	if le.sig == a.sig {
		t.Fatal("operator change did not change the signature")
	}

	// The boundary-column set (refs) is part of the signature: the same
	// scan materialized for different join shapes must not share.
	sc := skelScan(cat, skelQueryFiltered(50), "t1")
	r1, _ := scanTemplateOf(sc, []sql.ColRef{{Table: "t1", Column: "k"}}, []int{2})
	r2, _ := scanTemplateOf(sc, []sql.ColRef{{Table: "t1", Column: "k2"}}, []int{2})
	if r1.sig == r2.sig {
		t.Fatal("boundary-column change did not change the signature")
	}

	// Shapes outside the template contract: no filters, NULL constants,
	// duplicate stripped conjuncts.
	qn := skelQuery()
	qn.Selections = nil
	if _, ok := tmplScanOf(t, cat, qn, "t1"); ok {
		t.Fatal("unfiltered scan must not canonicalize")
	}
	qnull := skelQueryFiltered(50)
	qnull.Selections[0].Value = rel.Null
	if _, ok := tmplScanOf(t, cat, qnull, "t1"); ok {
		t.Fatal("NULL-constant scan must not canonicalize")
	}
	qdup := skelQueryFiltered(50)
	qdup.Selections = append(qdup.Selections, sql.Selection{
		Col: sql.ColRef{Table: "t1", Column: "v"}, Op: sql.OpLt, Value: rel.Int(70),
	})
	if _, ok := tmplScanOf(t, cat, qdup, "t1"); ok {
		t.Fatal("duplicate stripped conjuncts must not canonicalize")
	}
}

// TestTemplateIndexCollision: a fingerprint match with a different
// signature is a collision and must miss — the index never merges
// colliding templates.
func TestTemplateIndexCollision(t *testing.T) {
	cat := skelCatalog(t, 1, 50)
	tm, ok := tmplScanOf(t, cat, skelQueryFiltered(50), "t1")
	if !ok {
		t.Fatal("scan must canonicalize")
	}
	cache := NewSkeletonCache(0, 0)
	sub := &subResult{sig: "k", count: 1}
	cache.putSub("k", sub)
	cache.putTemplate(testPrefix, "k", tm, 1, nil, nil)
	if _, hit := cache.getTemplate(testPrefix, tm); !hit {
		t.Fatal("exact template must hit its own entry")
	}

	// Same fingerprint, different signature: the collision check must
	// reject the bucket entry.
	forged := tm
	forged.sig = tm.sig + "#forged"
	forged.fp = tm.fp
	if _, hit := cache.getTemplate(testPrefix, forged); hit {
		t.Fatal("colliding fingerprint with different signature must miss")
	}
}

// TestContainsConsts: the per-conjunct containment rule over every
// operator class.
func TestContainsConsts(t *testing.T) {
	iv := func(xs ...int64) []rel.Value {
		out := make([]rel.Value, len(xs))
		for i, x := range xs {
			out[i] = rel.Int(x)
		}
		return out
	}
	cases := []struct {
		name     string
		ops      []sql.CompareOp
		a, b     []rel.Value
		contains bool
	}{
		{"lt wider contains", []sql.CompareOp{sql.OpLt}, iv(60), iv(50), true},
		{"lt narrower not", []sql.CompareOp{sql.OpLt}, iv(50), iv(60), false},
		{"gt lower contains", []sql.CompareOp{sql.OpGt}, iv(10), iv(20), true},
		{"gt higher not", []sql.CompareOp{sql.OpGt}, iv(20), iv(10), false},
		{"between superset", []sql.CompareOp{sql.OpBetween}, iv(0, 100), iv(10, 90), true},
		{"between overlap not", []sql.CompareOp{sql.OpBetween}, iv(0, 50), iv(10, 90), false},
		{"eq same", []sql.CompareOp{sql.OpEq}, iv(5), iv(5), true},
		{"eq distinct", []sql.CompareOp{sql.OpEq}, iv(5), iv(6), false},
		{"multi conjunct", []sql.CompareOp{sql.OpLt, sql.OpBetween}, iv(60, 0, 100), iv(50, 10, 90), true},
		{"multi one fails", []sql.CompareOp{sql.OpLt, sql.OpEq}, iv(60, 1), iv(50, 2), false},
	}
	for _, tc := range cases {
		if got := containsConsts(tc.ops, tc.a, tc.b); got != tc.contains {
			t.Errorf("%s: containsConsts = %v, want %v", tc.name, got, tc.contains)
		}
	}

	// Cross-kind string/numeric constants order arbitrarily; containment
	// must refuse rather than guess.
	if containsConsts([]sql.CompareOp{sql.OpLt}, []rel.Value{rel.String_("9")}, iv(5)) {
		t.Error("cross-kind string/int containment must be rejected")
	}
	// Int/float mix is genuinely ordered and must work.
	if !containsConsts([]sql.CompareOp{sql.OpLt}, []rel.Value{rel.Float(60.5)}, iv(50)) {
		t.Error("int/float containment must order by value")
	}
}

// tmplPlans builds nInstances of the same logical query differing only
// in the t1 filter constant — the parametrized-traffic shape the
// template machinery exists for.
func tmplPlans(cat *catalog.Catalog, nInstances int) []*plan.Plan {
	plans := make([]*plan.Plan, nInstances)
	for i := range plans {
		plans[i] = planFor(cat, skelQueryFiltered(int64(30+i*7)))
	}
	return plans
}

// TestTemplateBatchMatchesSolo: the equivalence suite — batches of
// instances of one template, validated with the template index on, must
// report per-node counts byte-identical to solo sequential runs at
// shards {1,2} x cache {none,cold,warm}, identical to the same batch
// with sharing off, and — loosest instance first — must serve every
// later instance's t1 scan by refinement instead of a sample scan.
func TestTemplateBatchMatchesSolo(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		cat := skelCatalog(t, seed, 400)
		plans := tmplPlans(cat, 5)
		slices.Reverse(plans) // loosest constant first: it contains the others
		ctx := context.Background()

		// Reference: solo sequential runs, no cache, no sharing.
		want := make([]map[plan.Node]int64, len(plans))
		for pi, p := range plans {
			counts, err := countSkeleton(p, cat.Table, nil)
			if err != nil {
				t.Fatalf("seed %d plan %d solo: %v", seed, pi, err)
			}
			want[pi] = counts
		}

		check := func(label string, cache *SkeletonCache, cfg SkelConfig) {
			t.Helper()
			got, perPlan, err := countBatch(ctx, batchOf(plans, cache), cat.Table, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, label, err)
			}
			for pi := range plans {
				if perPlan[pi] != nil {
					t.Fatalf("seed %d %s plan %d: %v", seed, label, pi, perPlan[pi])
				}
				plan.Walk(plans[pi].Root, func(n plan.Node) {
					if got[pi][n] != want[pi][n] {
						t.Errorf("seed %d %s plan %d node %v: templates %d, solo %d",
							seed, label, pi, n.Aliases(), got[pi][n], want[pi][n])
					}
				})
			}
		}

		for _, shards := range []int{1, 2} {
			cfg := SkelConfig{Shards: shards, Templates: true}
			label := fmt.Sprintf("shards=%d", shards)

			check(label+" uncached", nil, cfg)

			cache := NewSkeletonCache(0, 0)
			check(label+" cold-cache", cache, cfg)
			if hits, _ := cache.TemplateStats(); hits != int64(len(plans)-1) {
				t.Errorf("seed %d %s: %d template hits, want every instance after the loosest (%d) refined from it",
					seed, label, hits, len(plans)-1)
			}

			// Warm replay over the same cache: exact hits all the way.
			check(label+" warm-cache", cache, cfg)
			if hits, _ := cache.TemplateStats(); hits != int64(len(plans)-1) {
				t.Errorf("seed %d %s: warm replay probed the template index (%d hits)", seed, label, hits)
			}

			// Cross-check: sharing off over the same shape must agree.
			check(label+" sharing-off", NewSkeletonCache(0, 0), SkelConfig{Shards: shards})
		}
	}
}

// TestTemplateCacheRefinesNearMiss: a cached template instance must
// serve a *different*, contained constant without touching the samples —
// observable as a template-index hit — and the refined counts must be
// byte-identical to a fresh solo run. A non-contained (looser) constant
// must miss and compute fresh, staying correct.
func TestTemplateCacheRefinesNearMiss(t *testing.T) {
	cat := skelCatalog(t, 11, 400)
	ctx := context.Background()
	cache := NewSkeletonCache(0, 0)
	cfg := SkelConfig{Templates: true}

	seedPlan := planFor(cat, skelQueryFiltered(60))
	if _, perPlan, err := countBatch(ctx, []BatchPlan{prep(seedPlan, cache)}, cat.Table, cfg); err != nil || perPlan[0] != nil {
		t.Fatalf("seed batch: %v / %v", err, perPlan)
	}

	// Tighter constant: contained by the cached v < 60 instance.
	near := planFor(cat, skelQueryFiltered(45))
	want, err := countSkeleton(near, cat.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	hits0, _ := cache.TemplateStats()
	got, perPlan, err := countBatch(ctx, []BatchPlan{prep(near, cache)}, cat.Table, cfg)
	if err != nil || perPlan[0] != nil {
		t.Fatalf("near-miss batch: %v / %v", err, perPlan)
	}
	hits1, _ := cache.TemplateStats()
	if hits1 <= hits0 {
		t.Fatalf("near-miss constant did not hit the template index (hits %d -> %d)", hits0, hits1)
	}
	plan.Walk(near.Root, func(n plan.Node) {
		if got[0][n] != want[n] {
			t.Errorf("refined node %v: %d, solo %d", n.Aliases(), got[0][n], want[n])
		}
	})

	// Looser constant: NOT contained; must compute fresh and stay right.
	loose := planFor(cat, skelQueryFiltered(85))
	wantLoose, err := countSkeleton(loose, cat.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, perPlan, err = countBatch(ctx, []BatchPlan{prep(loose, cache)}, cat.Table, cfg)
	if err != nil || perPlan[0] != nil {
		t.Fatalf("loose batch: %v / %v", err, perPlan)
	}
	plan.Walk(loose.Root, func(n plan.Node) {
		if got[0][n] != wantLoose[n] {
			t.Errorf("loose node %v: %d, solo %d", n.Aliases(), got[0][n], wantLoose[n])
		}
	})

	// A sharded single-plan run must serve from the same template index
	// too, byte-identically.
	shCfg := SkelConfig{Shards: 2, Templates: true}
	near2 := planFor(cat, skelQueryFiltered(40))
	want2, err := countSkeleton(near2, cat.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := countSkeletonCfg(ctx, near2, cat.Table, cache, shCfg)
	if err != nil {
		t.Fatal(err)
	}
	plan.Walk(near2.Root, func(n plan.Node) {
		if counts[n] != want2[n] {
			t.Errorf("single-plan refined node %v: %d, solo %d", n.Aliases(), counts[n], want2[n])
		}
	})
}

// TestPanicTemplateScanFailsOnlyRiders: with the template index on, a
// panic injected into one template instance's scan fails exactly that
// plan — its perPlan slot carries ErrValidationPanic — while the
// co-batched instance of the same template and an unrelated plan complete
// with counts byte-identical to their solo runs, the failed instance
// leaves no entry (and so no template-index entry) behind, and a rerun
// over the same cache recovers everyone.
func TestPanicTemplateScanFailsOnlyRiders(t *testing.T) {
	cat := skelCatalog(t, 5, 400)
	ctx := context.Background()

	riderA := planFor(cat, skelQueryFiltered(52))
	riderB := planFor(cat, skelQueryFiltered(51))
	qOther := skelQuery()
	qOther.Selections = qOther.Selections[1:] // drop the t1 filter: no template on t1
	other := planFor(cat, qOther)

	wants := make([]map[plan.Node]int64, 3)
	for i, p := range []*plan.Plan{riderA, riderB, other} {
		var err error
		if wants[i], err = countSkeleton(p, cat.Table, nil); err != nil {
			t.Fatal(err)
		}
	}

	cfg := SkelConfig{Templates: true}
	cache := NewSkeletonCache(0, 0)
	bplans := []BatchPlan{
		prep(riderA, cache), prep(riderB, cache), prep(other, cache),
	}
	func() {
		var fi faultinject.Set
		// riderA's signatures all carry its constant; riderB — which the
		// index would have served from riderA's scan — and the unrelated
		// plan never match.
		fi.PanicAt(faultinject.SkelNode, "t1.v < 52")
		defer fi.Activate()()
		counts, perPlan, berr := countBatch(ctx, bplans, cat.Table, cfg)
		if berr != nil {
			t.Fatalf("batch error %v, want per-plan isolation", berr)
		}
		if !errors.Is(perPlan[0], ErrValidationPanic) {
			t.Fatalf("injected instance: err = %v, want ErrValidationPanic", perPlan[0])
		}
		for _, pi := range []int{1, 2} {
			if perPlan[pi] != nil {
				t.Fatalf("plan %d: err = %v, want nil", pi, perPlan[pi])
			}
			for n, c := range wants[pi] {
				if counts[pi][n] != c {
					t.Fatalf("plan %d count diverged next to a panicking template instance: %d != %d", pi, counts[pi][n], c)
				}
			}
		}
		if hits, _ := cache.TemplateStats(); hits != 0 {
			t.Fatalf("%d template hits: the panicking instance left an index entry behind", hits)
		}
	}()

	// Injection gone: the same cache serves everyone — the panicking
	// instance stored nothing — and the tighter instance now cached
	// does not contain the looser one, which scans.
	counts, perPlan, err := countBatch(ctx, bplans, cat.Table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bplans {
		if perPlan[i] != nil {
			t.Fatalf("rerun plan %d: %v", i, perPlan[i])
		}
		for n, c := range wants[i] {
			if counts[i][n] != c {
				t.Fatalf("rerun plan %d count: %d, want %d (cache poisoned?)", i, counts[i][n], c)
			}
		}
	}
}
