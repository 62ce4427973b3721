package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/faultinject"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sampling"
	"reopt/internal/sql"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpcds"
	"reopt/internal/workload/tpch"
)

// --- The from-scratch reference ---
//
// What every validation round derived per plan node before the prepared
// per-query state existed, kept here as the oracle: signatures,
// boundary columns and cache keys rendered from the node; Γ keys and
// scale products rebuilt per call; counts from the general executor.

// oracleSig is the subtree signature: the relation set plus every filter
// and predicate applied within the subtree, rendered and sorted per node.
func oracleSig(n plan.Node) string {
	var toks []string
	plan.Walk(n, func(m plan.Node) {
		switch t := m.(type) {
		case *plan.ScanNode:
			toks = append(toks, "T:"+t.Alias+"="+t.Table)
			for _, f := range t.Filters {
				toks = append(toks, "F:"+f.String())
			}
		case *plan.JoinNode:
			for _, p := range t.Preds {
				toks = append(toks, "J:"+p.Canonical().String())
			}
		}
	})
	sort.Strings(toks)
	return plan.CanonicalSet(n.Aliases()) + "||" + strings.Join(toks, "&")
}

// oracleBoundary is the boundary-column set of a relation set: two maps
// and a sort per node.
func oracleBoundary(q *sql.Query, aliases []string) []sql.ColRef {
	in := make(map[string]bool, len(aliases))
	for _, a := range aliases {
		in[a] = true
	}
	seen := map[sql.ColRef]bool{}
	var out []sql.ColRef
	for _, p := range q.Joins {
		li, ri := in[p.Left.Table], in[p.Right.Table]
		if li == ri {
			continue
		}
		c := p.Left
		if ri {
			c = p.Right
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// oracleSubKey is a sub-result's cache key: epoch prefix, signature,
// boundary columns.
func oracleSubKey(prefix string, q *sql.Query, n plan.Node) string {
	key := prefix + oracleSig(n) + "|B:"
	for _, r := range oracleBoundary(q, n.Aliases()) {
		key += r.Table + "." + r.Column + ","
	}
	return key
}

// oracleSkeleton strips aggregates, as only join cardinalities are
// validated, and swaps physical choices for what samples support.
func oracleSkeleton(n plan.Node) plan.Node {
	switch t := n.(type) {
	case *plan.ScanNode:
		c := *t
		c.Access, c.IndexColumn = plan.SeqScan, ""
		return &c
	case *plan.JoinNode:
		c := *t
		c.Kind, c.Left, c.Right = plan.HashJoin, oracleSkeleton(t.Left), oracleSkeleton(t.Right)
		return &c
	case *plan.AggregateNode:
		return oracleSkeleton(t.Child)
	}
	return n
}

// oracleEstimate scales the general executor's per-node sample counts
// into Δ: a per-call scale map, an alias list and a Γ key per node.
func oracleEstimate(t testing.TB, q *sql.Query, skeleton plan.Node, cat *catalog.Catalog) (delta map[string]float64, rows map[string]int64, nodeRows map[plan.Node]int64) {
	t.Helper()
	res, err := executor.Run(&plan.Plan{Root: skeleton, Query: q}, cat, executor.Options{CountOnly: true, Binder: cat.Sample})
	if err != nil {
		t.Fatal(err)
	}
	scale := map[string]float64{}
	for _, tr := range q.Tables {
		base, err := cat.Table(tr.Name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := cat.Sample(tr.Name)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumRows() == 0 {
			scale[tr.Alias] = 1 / cat.SampleRatio()
			continue
		}
		scale[tr.Alias] = float64(base.NumRows()) / float64(s.NumRows())
	}
	delta, rows = map[string]float64{}, map[string]int64{}
	plan.Walk(skeleton, func(n plan.Node) {
		aliases := n.Aliases()
		key := plan.CanonicalSet(aliases)
		count := res.NodeRows[n]
		scaleProd := 1.0
		for _, a := range aliases {
			scaleProd *= scale[a]
		}
		f := float64(count) * scaleProd
		if count == 0 {
			f = 0.5 * scaleProd
		}
		delta[key], rows[key] = f, count
	})
	return delta, rows, res.NodeRows
}

// refStore is the shared cache as the reference predicts it: which keys
// a validation finds, which it writes, and the hit/miss totals.
type refStore struct {
	keys         map[string]bool
	hits, misses int64
}

// oraclePhysRows runs the skeleton cold — no cache — and
// returns the physical rows each node's sub-result is held in (distinct
// boundary tuples, DESIGN.md §12), after checking that the logical counts
// are the general executor's.
func oraclePhysRows(t testing.TB, label string, q *sql.Query, skeleton plan.Node, cat *catalog.Catalog, nodeRows map[plan.Node]int64) map[plan.Node]int64 {
	t.Helper()
	steps, err := mustPrepare(t, q, nil, cat, 0).Count(context.Background(), skeleton)
	if err != nil {
		t.Fatalf("%s: cold skeleton run: %v", label, err)
	}
	phys := make(map[plan.Node]int64, len(steps))
	for i := range steps {
		st := &steps[i]
		if st.Count != nodeRows[st.Node()] || st.Rows > st.Count || (st.Rows == 0) != (st.Count == 0) {
			t.Fatalf("%s: set %q: skeleton counts %d in %d rows, general executor %d", label, st.Set.Key, st.Count, st.Rows, nodeRows[st.Node()])
		}
		phys[st.Node()] = st.Rows
	}
	return phys
}

// validate predicts one plan's validation against the store and returns
// the signatures of the nodes in the order a tree walk enters them and
// its memory charge: per node
// its physical rows times its boundary columns (plus a weight column when
// the rows are fewer than the count), per join a hash-table entry for
// every physical row of its build side.
func (s *refStore) validate(prefix string, q *sql.Query, skeleton plan.Node, nodeRows, physRows map[plan.Node]int64) (entered []string, charge int64) {
	plan.Walk(skeleton, func(n plan.Node) { entered = append(entered, oracleSig(n)) })
	var post func(n plan.Node)
	post = func(n plan.Node) {
		if j, ok := n.(*plan.JoinNode); ok {
			post(j.Left)
			post(j.Right)
			charge += physRows[j.Right]
		}
		width := int64(len(oracleBoundary(q, n.Aliases())))
		if physRows[n] != nodeRows[n] {
			width++
		}
		charge += physRows[n] * width
		key := oracleSubKey(prefix, q, n)
		if s.keys[key] {
			s.hits++
			return
		}
		s.misses++
		s.keys[key] = true
	}
	post(skeleton)
	return entered, charge
}

func (s *refStore) sortedKeys() []string {
	keys := make([]string, 0, len(s.keys))
	for k := range s.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sameEstimate requires an estimate to equal the reference bit for bit:
// one entry per reference set, each under its canonical key and mask.
func sameEstimate(t testing.TB, label string, q *sql.Query, got *sampling.Estimate, delta map[string]float64, rows map[string]int64) {
	t.Helper()
	if len(got.Sets) != len(delta) || len(rows) != len(delta) {
		t.Fatalf("%s: %d set entries, reference has %d Δ / %d count entries", label, len(got.Sets), len(delta), len(rows))
	}
	seen := map[string]bool{}
	for _, s := range got.Sets {
		var aliases []string
		for i, tr := range q.Tables {
			if s.Mask&(1<<uint(i)) != 0 {
				aliases = append(aliases, tr.Alias)
			}
		}
		want, ok := delta[s.Key]
		if seen[s.Key] || !ok || s.Key != plan.CanonicalSet(aliases) ||
			math.Float64bits(s.Rows) != math.Float64bits(want) || s.SampleRows != rows[s.Key] {
			t.Fatalf("%s: set entry %+v does not match Δ[%q] = %v (%d sample rows) of %v", label, s, s.Key, want, rows[s.Key], aliases)
		}
		seen[s.Key] = true
	}
}

// validationCheck wraps the estimator the round loop calls: every
// validation is compared with the reference as it returns — estimate,
// fault-injection tags, the budget verdict at one value either side of
// the plan's charge — against the samples it ran on.
type validationCheck struct {
	t      *testing.T
	label  string
	cat    *catalog.Catalog
	shared *executor.SkeletonCache
	store  *refStore
	rounds int
	// afterRound, when set, runs after each checked validation (the
	// mid-run BuildSamples hook).
	afterRound func(round int)
}

func (c *validationCheck) estimate(ctx context.Context, ps []*plan.Plan, cat *catalog.Catalog, cache sampling.Cache) ([]*sampling.Estimate, error) {
	t := c.t
	// Validation runs on this goroutine, so the rule's action does too.
	var tags []string
	var fi faultinject.Set
	fi.On(faultinject.Rule{Point: faultinject.SkelNode, Do: func(_ faultinject.Point, tag string) {
		tags = append(tags, tag)
	}})
	restore := fi.Activate()
	ests, err := sampling.EstimatePlans(ctx, ps, cat, cache)
	restore()
	if err != nil {
		return nil, err
	}
	prefix := fmt.Sprintf("s%d|", cat.SampleEpoch())
	var entered []string
	for i, p := range ps {
		c.rounds++
		label := fmt.Sprintf("%s validation %d", c.label, c.rounds)
		skeleton := oracleSkeleton(p.Root)
		delta, rows, nodeRows := oracleEstimate(t, p.Query, skeleton, cat)
		sameEstimate(t, label, p.Query, ests[i], delta, rows)
		e, charge := c.store.validate(prefix, p.Query, skeleton, nodeRows, oraclePhysRows(t, label, p.Query, skeleton, cat, nodeRows))
		entered = append(entered, e...)

		// Budget verdicts do not depend on cache state: validate again,
		// fully cached, one value either side of the plan's charge. The
		// probes' own lookups — all hits — are not the round loop's.
		h0, m0 := c.shared.Stats()
		for _, b := range []int64{charge - 1, charge} {
			if b <= 0 {
				continue
			}
			_, berr := sampling.EstimatePlans(ctx, []*plan.Plan{p}, cat, mustPrepare(t, p.Query, cache.Cache(), cat, b))
			if breach := errors.Is(berr, executor.ErrMemoryBudget); breach != (b < charge) || (berr != nil && !breach) {
				t.Fatalf("%s: budget %d against a charge of %d: %v", label, b, charge, berr)
			}
		}
		h1, m1 := c.shared.Stats()
		if m1 != m0 {
			t.Fatalf("%s: re-validating a validated plan missed the cache %d times", label, m1-m0)
		}
		c.store.hits += h1 - h0
	}
	if !slices.Equal(tags, entered) {
		t.Fatalf("%s: node tags\n %q\nreference\n %q", c.label, tags, entered)
	}
	if c.afterRound != nil {
		c.afterRound(c.rounds)
	}
	return ests, nil
}

// preparedWorkloads is every bench-shaped query plus the queries the
// experiment figures re-optimize: OTT batches of 5 and 6 tables, TPC-H
// instances at both skews, TPC-DS instances.
func preparedWorkloads(t *testing.T) []shapedWorkload {
	ws := benchShapedWorkloads(t)
	ottCat, err := ott.Generate(ott.Config{Seed: 3, RowsPerValue: 10})
	if err != nil {
		t.Fatal(err)
	}
	var figs []*sql.Query
	for _, n := range []int{5, 6} {
		qs, err := ott.Queries(ottCat, ott.QueryConfig{NumTables: n, SameConstant: 4, Count: 3, Seed: 3 + int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, qs...)
	}
	ws = append(ws, shapedWorkload{"fig_ott", ottCat, figs})
	for _, z := range []float64{0, 1} {
		cat, err := tpch.Generate(tpch.Config{Customers: 150, Z: z, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var qs []*sql.Query
		for _, id := range tpch.QueryIDs() {
			inst, err := tpch.Instances(cat, id, 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, inst...)
		}
		ws = append(ws, shapedWorkload{fmt.Sprintf("fig_tpch_z%v", z), cat, qs})
	}
	dsCat, err := tpcds.Generate(tpcds.Config{StoreSales: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ds []*sql.Query
	for _, id := range tpcds.QueryIDs() {
		inst, err := tpcds.Instances(dsCat, id, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, inst...)
	}
	return append(ws, shapedWorkload{"fig_tpcds", dsCat, ds})
}

// TestPreparedValidationMatchesFromScratch: for every round of every
// bench-shaped and experiment-figure query, validating through the
// prepared per-query state yields what the from-scratch reference does —
// Δ and sample rows bit for bit (every Step.Count the general executor's,
// whatever weights the skeleton held it in), the cache keys written, the
// hit/miss counters, the fault-injection tags, the budget verdicts at the
// charge a cold run's physical rows predict — whatever the deprecated
// Options.Workers says, and under Conservative blending.
func TestPreparedValidationMatchesFromScratch(t *testing.T) {
	orig := estimatePlansFn
	defer func() { estimatePlansFn = orig }()
	rounds := 0
	for _, w := range preparedWorkloads(t) {
		opt := optimizer.New(w.cat, optimizer.DefaultConfig())
		for _, workers := range []int{0, 8} {
			// One cache per configuration, shared by the workload's
			// queries as a session's is.
			cache := workloadStore()
			store := &refStore{keys: map[string]bool{}}
			for qi, q := range w.queries {
				label := fmt.Sprintf("%s query %d workers=%d", w.name, qi, workers)
				check := &validationCheck{t: t, label: label, cat: w.cat, shared: cache, store: store}
				estimatePlansFn = check.estimate
				r := New(opt, w.cat)
				r.Opts = Options{Workers: workers, Cache: cache, Conservative: qi%2 == 1}
				res, err := r.Reoptimize(q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				rounds += check.rounds
				if r.Opts.Conservative {
					sameConservativeGamma(t, label, opt, q, res)
				}
			}
			if got, want := cache.Keys(), store.sortedKeys(); !slices.Equal(got, want) {
				t.Fatalf("%s workers=%d: cache holds %d keys, reference %d\n got  %q\n want %q",
					w.name, workers, len(got), len(want), got, want)
			}
			if hits, misses := cache.Stats(); hits != store.hits || misses != store.misses {
				t.Fatalf("%s workers=%d: %d hits / %d misses, reference %d / %d",
					w.name, workers, hits, misses, store.hits, store.misses)
			}
		}
	}
	if rounds < 400 {
		t.Fatalf("only %d validations compared", rounds)
	}
}

// sameConservativeGamma replays a Conservative run's rounds from scratch:
// each round's Δ (the reference already vouched for it) blended with the
// statistics-only estimate, weighted by the sample rows that witnessed
// the set.
func sameConservativeGamma(t *testing.T, label string, opt *optimizer.Optimizer, q *sql.Query, res *Result) {
	t.Helper()
	want := map[string]float64{}
	for _, rd := range res.Rounds {
		delta, rows, _ := oracleEstimate(t, q, oracleSkeleton(rd.Plan.Root), opt.Catalog())
		for key, sampled := range delta {
			hist, err := opt.EstimateCardinality(q, strings.Split(key, plan.AliasSep))
			if err != nil {
				t.Fatal(err)
			}
			w := sampling.ConfidenceWeight(rows[key])
			want[key] = w*sampled + (1-w)*hist
		}
	}
	if res.Gamma.Len() != len(want) {
		t.Fatalf("%s: Γ holds %d sets, replay %d", label, res.Gamma.Len(), len(want))
	}
	for key, w := range want {
		var mask uint64
		for _, a := range strings.Split(key, plan.AliasSep) {
			mask |= 1 << uint(slices.IndexFunc(q.Tables, func(tr sql.TableRef) bool { return tr.Alias == a }))
		}
		if g, _ := res.Gamma.Get(mask); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: Γ[%q] = %v, replay %v", label, key, g, w)
		}
	}
}

// TestPreparedValidationFollowsSampleEpoch: rebuilding the samples in
// the middle of a re-optimization starts the prepared state afresh —
// scale factors, cache keys and all — so every later round still equals
// the reference on the samples it ran on.
func TestPreparedValidationFollowsSampleEpoch(t *testing.T) {
	orig := estimatePlansFn
	defer func() { estimatePlansFn = orig }()
	cat, err := ott.Generate(ott.Config{Seed: 5, RowsPerValue: 20})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ott.Queries(cat, ott.QueryConfig{NumTables: 6, SameConstant: 4, Count: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	cache := workloadStore()
	store := &refStore{keys: map[string]bool{}}
	rebuilds := 0
	for qi, q := range qs {
		check := &validationCheck{t: t, label: fmt.Sprintf("query %d", qi), cat: cat, shared: cache, store: store}
		check.afterRound = func(round int) {
			if round == 1 {
				cat.BuildSamples(int64(100 + qi))
				rebuilds++
			}
		}
		estimatePlansFn = check.estimate
		r := New(opt, cat)
		r.Opts = Options{Cache: cache}
		if _, err := r.Reoptimize(q); err != nil {
			t.Fatal(err)
		}
		if check.rounds < 2 {
			t.Fatalf("query %d validated %d rounds; the rebuild never sat between two", qi, check.rounds)
		}
	}
	if got, want := cache.Keys(), store.sortedKeys(); !slices.Equal(got, want) {
		t.Fatalf("cache holds %d keys across %d sample sets, reference %d", len(got), rebuilds+1, len(want))
	}
}

// TestPrivateCacheFollowsSampleEpoch: the same rebuild between rounds,
// through a re-optimization's private cache instead of a shared one. Its
// keys carry the sample epoch too, so no round after the rebuild replays
// a count observed on the samples before it.
func TestPrivateCacheFollowsSampleEpoch(t *testing.T) {
	orig := estimatePlansFn
	defer func() { estimatePlansFn = orig }()
	cat, err := ott.Generate(ott.Config{Seed: 5, RowsPerValue: 20})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ott.Queries(cat, ott.QueryConfig{NumTables: 6, SameConstant: 4, Count: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	for qi, q := range qs {
		// shared is only the probes' hit/miss reference here: the run
		// validates through its own private cache.
		check := &validationCheck{t: t, label: fmt.Sprintf("query %d", qi), cat: cat,
			shared: workloadStore(), store: &refStore{keys: map[string]bool{}}}
		check.afterRound = func(round int) {
			if round == 1 {
				cat.BuildSamples(int64(200 + qi))
			}
		}
		estimatePlansFn = check.estimate
		if _, err := New(opt, cat).Reoptimize(q); err != nil {
			t.Fatal(err)
		}
		if check.rounds < 2 {
			t.Fatalf("query %d validated %d rounds; the rebuild never sat between two", qi, check.rounds)
		}
	}
}

// TestPreparedValidationCoalescedAliasOrders: two queries that list the
// same tables in different FROM orders — so one relation set is two
// different masks — validate concurrently through one shared store, each
// through its own prepared state, and both get what they get alone; the
// shared cache ends up with the keys of the plans validated, once.
func TestPreparedValidationCoalescedAliasOrders(t *testing.T) {
	cat, err := ott.Generate(ott.Config{Seed: 1, NumTables: 6, RowsPerValue: 10})
	if err != nil {
		t.Fatal(err)
	}
	const where = " WHERE t1.a = 3 AND t2.a = 3 AND t3.a = 3 AND t4.a = 3 AND t5.a = 7 AND t1.b = t2.b AND t2.b = t3.b AND t3.b = t4.b AND t4.b = t5.b"
	var qs []*sql.Query
	for _, from := range []string{
		"r1 AS t1, r2 AS t2, r3 AS t3, r4 AS t4, r5 AS t5",
		"r5 AS t5, r3 AS t3, r1 AS t1, r4 AS t4, r2 AS t2",
	} {
		q, err := sql.Parse("SELECT COUNT(*) FROM "+from+where, cat)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	var alone []*Result
	for _, q := range qs {
		res, err := New(opt, cat).Reoptimize(q)
		if err != nil {
			t.Fatal(err)
		}
		alone = append(alone, res)
	}
	for _, workers := range []int{0, 8} { // deprecated: selects nothing
		cache := workloadStore()
		got := make([]*Result, len(qs))
		errs := make([]error, len(qs))
		var wg sync.WaitGroup
		for i, q := range qs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := New(opt, cat)
				r.Opts = Options{Workers: workers, Cache: cache}
				got[i], errs[i] = r.Reoptimize(q)
			}()
		}
		wg.Wait()
		store := &refStore{keys: map[string]bool{}}
		prefix := fmt.Sprintf("s%d|", cat.SampleEpoch())
		for i, q := range qs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if g, w := got[i].Gamma.Snapshot(), alone[i].Gamma.Snapshot(); g != w || got[i].Final.Fingerprint() != alone[i].Final.Fingerprint() {
				t.Fatalf("workers=%d query %d: concurrent Γ %s, alone %s", workers, i, g, w)
			}
			for _, rd := range got[i].Rounds {
				skeleton := oracleSkeleton(rd.Plan.Root)
				_, _, nodeRows := oracleEstimate(t, q, skeleton, cat)
				store.validate(prefix, q, skeleton, nodeRows, nodeRows) // keys only: the charge is not read
			}
		}
		if g, w := cache.Keys(), store.sortedKeys(); !slices.Equal(g, w) {
			t.Fatalf("workers=%d: cache holds %d keys, reference %d\n got  %q\n want %q", workers, len(g), len(w), g, w)
		}
	}
}

// TestMultiSeedSharesOnePreparedState: the seeds of a multi-seed run
// validate through one prepared state — every seed's rounds, its
// initial candidate's included — concurrently with other queries' runs
// through one shared store (run under -race by `make race`), and each
// run returns what it returns alone.
func TestMultiSeedSharesOnePreparedState(t *testing.T) {
	r0, qs := ottSetup(t)
	want := make([]string, len(qs))
	for i, q := range qs {
		res, err := r0.ReoptimizeMultiSeedCtx(context.Background(), q, 3)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Final.Fingerprint() + " " + res.Gamma.Snapshot()
	}
	cache := workloadStore()
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := New(r0.Opt, r0.Cat)
			r.Opts = Options{Workers: 2, Cache: cache}
			res, err := r.ReoptimizeMultiSeedCtx(context.Background(), q, 3)
			if err != nil {
				t.Error(err)
				return
			}
			if got := res.Final.Fingerprint() + " " + res.Gamma.Snapshot(); got != want[i] {
				t.Errorf("query %d: concurrent multi-seed run\n %s\nalone\n %s", i, got, want[i])
			}
		}()
	}
	wg.Wait()
}

// TestRepeatRoundValidationAllocs bounds what validating a plan of a
// 6-table chain allocates once the query's state is prepared and every
// sub-result is cached — a later round's validation: the compiled steps,
// the estimate's maps and slices, and the call's bookkeeping, nothing
// per node — the same ceiling whatever the deprecated Options.Workers says.
func TestRepeatRoundValidationAllocs(t *testing.T) {
	cat, err := ott.Generate(ott.Config{Seed: 1, RowsPerValue: 10})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ott.Queries(cat, ott.QueryConfig{NumTables: 6, SameConstant: 4, Count: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	p, err := opt.Optimize(qs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := mustPrepare(t, qs[0], workloadStore(), cat, 0)
	plans := []*plan.Plan{p}
	for _, workers := range []int{0, 1, 8} {
		r := New(opt, cat)
		r.Opts.Workers = workers
		validate := func() {
			if _, err := r.validatePlans(context.Background(), plans, cache); err != nil {
				t.Fatal(err)
			}
		}
		validate()
		if allocs := testing.AllocsPerRun(50, validate); allocs > 24 {
			t.Errorf("Workers=%d: a fully cached repeat-round validation allocates %.0f objects, ceiling 24", workers, allocs)
		}
	}
}

// BenchmarkValidateRounds splits Algorithm 1's validation cost on a
// 6-table chain: first is what round 1 pays (prepare the query's state,
// scan the samples, join them); repeat is what a later round's fixed
// cost is — the recorded round-2 plan against the state and the per-run
// cache its round left warm, so every sub-result is a lookup.
func BenchmarkValidateRounds(b *testing.B) {
	cat, err := ott.Generate(ott.Config{Seed: 1, RowsPerValue: 10})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := ott.Queries(cat, ott.QueryConfig{NumTables: 6, SameConstant: 4, Count: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := qs[0]
	res, err := New(optimizer.New(cat, optimizer.DefaultConfig()), cat).Reoptimize(q)
	if err != nil || len(res.Rounds) < 2 {
		b.Fatalf("need two recorded rounds: %d, %v", len(res.Rounds), err)
	}
	ctx := context.Background()
	round := func(i int) []*plan.Plan { return []*plan.Plan{res.Rounds[i].Plan} }
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cache := mustPrepare(b, q, executor.NewSkeletonCache(0, 0), cat, 0)
			if _, err := sampling.EstimatePlans(ctx, round(0), cat, cache); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("repeat", func(b *testing.B) {
		cache := mustPrepare(b, q, executor.NewSkeletonCache(0, 0), cat, 0)
		for i := 0; i < 2; i++ {
			if _, err := sampling.EstimatePlans(ctx, round(i), cat, cache); err != nil {
				b.Fatal(err)
			}
		}
		plans := round(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sampling.EstimatePlans(ctx, plans, cat, cache); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPrepareQuery times what a request derives from its query
// before round 1 plans: the query graph, the planner's state
// (Optimizer.Prepare) and the validation handle (sampling.Prepare), on a
// 6-table OTT chain and on TPC-H's 8-table query 8.
func BenchmarkPrepareQuery(b *testing.B) {
	ottCat, err := ott.Generate(ott.Config{Seed: 1, RowsPerValue: 10})
	if err != nil {
		b.Fatal(err)
	}
	ottQs, err := ott.Queries(ottCat, ott.QueryConfig{NumTables: 6, SameConstant: 4, Count: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tpchCat, err := tpch.Generate(tpch.Config{Seed: 1, Customers: 150, Z: 1})
	if err != nil {
		b.Fatal(err)
	}
	q8 := tpch.Templates()[7]
	tpchQ, err := sql.Parse(q8.Gen(rand.New(rand.NewSource(1))), tpchCat)
	if err != nil || q8.ID != 8 {
		b.Fatalf("TPC-H template %d: %v", q8.ID, err)
	}
	for _, c := range []struct {
		name string
		cat  *catalog.Catalog
		q    *sql.Query
	}{{"ott6", ottCat, ottQs[0]}, {"tpch8", tpchCat, tpchQ}} {
		opt := optimizer.New(c.cat, optimizer.DefaultConfig())
		store := executor.NewSkeletonCache(0, 0)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := sql.NewGraph(c.q)
				if _, err := opt.Prepare(g, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := sampling.Prepare(g, store, c.cat, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
