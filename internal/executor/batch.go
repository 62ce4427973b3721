package executor

// Batched multi-plan count-skeleton execution.
//
// CountSkeletonBatch evaluates several plans' count-only skeletons as
// one job. Validating plans one at a time leaves two kinds of work on
// the table: subtrees shared *between* the submitted plans are executed
// once per plan (the cross-round cache only helps the plans validated
// after the first), and the partitioned loops of each individual plan
// rarely fan out, because per-table samples are a few hundred rows —
// below the single-plan engine's fixed per-pass fan-out threshold.
//
// The batch engine fixes both. Every subtree of every plan becomes one
// *task*, deduplicated across plans by canonical signature plus
// boundary-column set (the same key the cache uses), so a subtree
// shared by five candidate plans is executed once. Tasks are grouped
// into waves by join depth — all leaf scans, then joins whose inputs
// are done, and so on — and each wave's work (every task's filter
// passes, selection materializations, hash-table builds and probes)
// forms one combined work list, partitioned into contiguous spans whose
// size derives from the wave's *total* rows divided by the worker count
// (adaptiveChunk); compaction, one pass in row order, is a unit per
// task. A worker pool drains the list, so parallelism comes from the
// batch, not from any one scan.
//
// Determinism: every parallel unit writes private state (a span of a
// task's bitmap or selection vector, a private probe part), and a task's
// spans merge in ascending row order before its compaction — so counts
// and materialized columns are byte-identical to running the single-plan
// engine over the same plans sequentially, at every worker count and
// cache state.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"reopt/internal/faultinject"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
	"reopt/internal/vec"
)

// CountSkeletonBatch computes the per-node output counts of several
// count-only skeletons in one deduplicated, partitioned pass. It
// returns one counts map per plan, positionally. A plan outside the
// engine's contract yields a nil map and an ErrSkeletonUnsupported
// error in its perPlan slot while the remaining plans still execute
// (callers fall back to the general executor for just that plan); a
// runtime failure (e.g. the binder cannot resolve a table) aborts the
// whole batch via err. cache may be nil; workers <= 0 selects
// GOMAXPROCS. Counts are byte-identical to sequential CountSkeleton
// runs over the same cache at every worker count.
func CountSkeletonBatch(plans []*plan.Plan, binder func(string) (*storage.Table, error), cache *SkeletonCache, workers int) (counts []map[plan.Node]int64, perPlan []error, err error) {
	bplans := make([]BatchPlan, len(plans))
	for i, p := range plans {
		bplans[i] = BatchPlan{Plan: p, Cache: cache}
	}
	return CountSkeletonBatchCfg(context.Background(), bplans, binder, SkelConfig{Workers: workers})
}

// BatchPlan pairs one plan of a cross-query batch with the cache its
// requester validates through. Plans of one requester share a cache;
// plans of different requesters may carry different caches (or none),
// and the batch still deduplicates their common subtrees — a sub-result
// computed once is charged to every requester's cache.
type BatchPlan struct {
	Plan  *plan.Plan
	Cache *SkeletonCache // may be nil (uncached requester)
}

// CountSkeletonBatchCfg is the cross-query generalization of
// CountSkeletonBatch, with cancellation, failure containment and the
// execution config. Each plan carries its own cache, so validations of
// *different* queries — private per-run caches, or views of one workload
// cache — execute as one deduplicated, partitioned pass: a subtree
// shared across requesters runs once, its sub-result (and build-side
// hash table) is stored under every requester's cache, and a hit in one
// requester's cache is propagated to the others, so each cache stays as
// warm as if its requester had run alone.
//
// ctx is checked between waves, between a wave's phases, and before each
// span of a phase's work list; a cancelled ctx aborts the batch with
// ctx.Err(), and results reach the caches only when their wave completed.
// cfg.MemBudget caps what EACH plan may materialize: every plan is
// charged for every node of its own tree — shared tasks charge each
// sharer, cache hits charge like computed results — so its verdict
// equals a solo CountSkeletonCfg run's, and a breach (ErrMemoryBudget)
// lands in its perPlan slot alone. A panic inside a work unit fails only
// the plans whose trees contain that unit's task (*PanicError in their
// perPlan slots); panics outside any unit abort the batch via err.
// Failed tasks store nothing. Counts, cached sub-results, budget
// verdicts and cache keys are byte-identical to sequential CountSkeleton
// runs per plan over its own cache, at every setting and cache mixture.
func CountSkeletonBatchCfg(ctx context.Context, bplans []BatchPlan, binder func(string) (*storage.Table, error), cfg SkelConfig) (counts []map[plan.Node]int64, perPlan []error, err error) {
	steps, perPlan, err := CountSkeletonSteps(ctx, bplans, binder, cfg)
	if err != nil {
		return nil, nil, err
	}
	counts = make([]map[plan.Node]int64, len(bplans))
	for i := range steps {
		if perPlan[i] == nil {
			counts[i] = countsByNode(steps[i])
		}
	}
	return counts, perPlan, nil
}

// CountSkeletonSteps is CountSkeletonBatchCfg returning each plan's
// compiled steps with their counts filled, instead of a map per plan:
// a step carries the relation set its count belongs to, which is all
// the estimator asks. Each plan compiles against the prepared state its
// cache view carries (SkeletonCache.Prepared).
func CountSkeletonSteps(ctx context.Context, bplans []BatchPlan, binder func(string) (*storage.Table, error), cfg SkelConfig) (steps [][]Step, perPlan []error, err error) {
	defer func() {
		if r := recover(); r != nil {
			steps, perPlan, err = nil, nil, failureError(r)
		}
	}()
	cfg = cfg.norm()
	workers := cfg.Workers
	steps = make([][]Step, len(bplans))
	perPlan = make([]error, len(bplans))
	if workers == 1 {
		// One worker means the combined work list cannot fan out, so the
		// batch machinery (task graph, span closures, per-task bitmaps)
		// would be pure overhead. The single-plan engine over each plan's
		// cache computes identical counts — cross-plan reuse still comes
		// from shared caches — with reusable per-engine scratch.
		for i, bp := range bplans {
			st, cerr := countSteps(ctx, bp.Plan, binder, bp.Cache, cfg)
			if cerr != nil {
				if errors.Is(cerr, ErrSkeletonUnsupported) ||
					errors.Is(cerr, ErrMemoryBudget) ||
					errors.Is(cerr, ErrCountOverflow) ||
					errors.Is(cerr, ErrValidationPanic) {
					perPlan[i] = cerr
					continue
				}
				return nil, nil, cerr
			}
			steps[i] = st
		}
		return steps, perPlan, nil
	}
	b := &batchBuilder{tasks: map[string]*batchTask{}}
	planTasks := make([][]*batchTask, len(bplans))
	for i, bp := range bplans {
		cache, prep := bp.Cache.split(bp.Plan.Query)
		// All unsupported-shape detection happens here, before any
		// execution, so one bad plan never aborts the batch.
		st, berr := prep.compile(bp.Plan.Root, true)
		if berr == nil {
			planTasks[i], berr = b.tasksFor(st, prep.prefix, cache)
		}
		if berr != nil {
			// Tasks already created for this plan's subtrees stay in the
			// batch: they are valid work, and other plans may share them.
			perPlan[i] = berr
			continue
		}
		steps[i] = st
	}

	// Invert plan→tasks into task→plans, with multiplicity: a plan
	// charges its budget once per node of its tree, exactly as the
	// single-plan engine would.
	users := map[*batchTask][]int{}
	for i := range bplans {
		if perPlan[i] != nil {
			continue
		}
		for _, t := range planTasks[i] {
			users[t] = append(users[t], i)
		}
	}
	accounts := make([]memAccount, len(bplans))
	for i := range accounts {
		accounts[i].budget = cfg.MemBudget
	}

	// Group tasks into waves by join depth; creation order within a
	// wave keeps scheduling and merging deterministic.
	maxWave := 0
	for _, t := range b.order {
		if t.wave > maxWave {
			maxWave = t.wave
		}
	}
	waves := make([][]*batchTask, maxWave+1)
	for _, t := range b.order {
		waves[t.wave] = append(waves[t.wave], t)
	}
	for w, wave := range waves {
		// Drop tasks whose every user plan has already failed (budget
		// breach, panic, or build-time rejection): a join task is only
		// live when some user plan survives, and that plan keeps every
		// child of the join live too (a plan's node set is closed under
		// subtrees), so live tasks never reference dropped inputs.
		live := wave[:0:0]
		for _, t := range wave {
			for _, pi := range users[t] {
				if perPlan[pi] == nil {
					live = append(live, t)
					break
				}
			}
		}
		if len(live) == 0 {
			continue
		}
		if err = ctx.Err(); err != nil {
			return nil, nil, err
		}
		if faultinject.Active() {
			tag := "scan"
			if w > 0 {
				tag = fmt.Sprintf("join:%d", w)
			}
			faultinject.Fire(faultinject.Wave, tag)
		}
		if w == 0 {
			err = runScanWave(ctx, live, binder, workers, cfg.Shards, cfg.Templates)
		} else {
			err = runJoinWave(ctx, live, workers)
		}
		if err != nil {
			return nil, nil, err
		}
		settleWave(live, users, accounts, perPlan)
	}

	for i := range bplans {
		if perPlan[i] != nil {
			steps[i] = nil
			continue
		}
		for si, t := range planTasks[i] {
			steps[i][si].Count, steps[i][si].Rows = t.sub.total, int64(t.sub.count)
		}
	}
	return steps, perPlan, nil
}

// settleWave attributes a completed wave's outcomes to the submitted
// plans: a failed task delivers its captured panic (or count overflow) to
// every plan whose tree contains it, and every completed task charges each
// of its user
// plans' memory accounts (per occurrence in that plan's tree). Plans
// already failed neither charge nor re-fail. Charges are non-negative
// and the breach verdict is "total exceeds budget", so settling after
// the wave is equivalent to the single-plan engine's charge-as-you-go.
func settleWave(wave []*batchTask, users map[*batchTask][]int, accounts []memAccount, perPlan []error) {
	for _, t := range wave {
		if cp := t.failedPanic(); cp != nil {
			for _, pi := range users[t] {
				if perPlan[pi] == nil {
					perPlan[pi] = failureError(cp)
				}
			}
			continue
		}
		charge := subCharge(t.sub)
		if t.join != nil {
			charge += int64(t.right.sub.count) // hash-table entries
		}
		for _, pi := range users[t] {
			if perPlan[pi] != nil {
				continue
			}
			if accounts[pi].charge(charge) {
				perPlan[pi] = ErrMemoryBudget
			}
		}
	}
}

// cacheRef is one requester cache a task serves: the (prefix-qualified)
// key of the task's sub-result under that cache, and — for joins,
// resolved during the wave — the key and cached value of the build-side
// hash table. A task shared by requesters holding different caches
// carries one ref per distinct cache, so the sub-result computed (or
// found) once lands in every requester's cache.
type cacheRef struct {
	cache *SkeletonCache
	key   string     // sub-result key under cache
	tkey  string     // hash-table key under cache (join waves)
	table *joinTable // cached table found under cache, if any
}

// batchTask is one deduplicated logical subtree of the batch. Exactly
// one of scan/join is set; left/right are set for joins.
type batchTask struct {
	seq   int    // creation order
	sig   string // canonical subtree signature (cache-independent)
	crefs []cacheRef
	refs  []sql.ColRef
	wave  int

	scan        *plan.ScanNode
	join        *joinInfo // the prepared resolution: key columns, gather plan
	ksuffix     string    // what a hash-table key appends to the build side's key
	left, right *batchTask

	// Build-time resolution (also the per-plan unsupported check).
	filterPos []int // scan: schema position of each filter column
	boundPos  []int // scan: schema position of each boundary column

	// Template sharing (scan tasks, SkelConfig.Templates only): the
	// constant-stripped template of the scan, and the shared-scan group
	// the task rides in its wave, if any (nil = solo execution).
	tmpl   scanTemplate
	tmplOK bool
	group  *scanGroup

	sub *subResult // the result, once the task's wave has run

	// failed is set (first capture wins) when a work unit serving this
	// task panics; the task then computes no sub-result, stores nothing,
	// and settleWave fails every plan whose tree contains it.
	failed atomic.Pointer[capturedPanic]

	// Wave-execution scratch, released in the wave's final stage. A
	// scan task holds one scanShard per sample shard (exactly one with
	// the monolithic layout) over store, the whole sample; the shards'
	// selections concatenate in shard order into sel, in store's row ids.
	shards []scanShard
	store  *storage.ColStore
	sel    []int32
	table  *joinTable
	parts  []probePart
	pspans []span
}

// scanShard is the per-shard scratch of one scan task: the shard's
// column store view, its compiled filter passes (passes close over the
// shard's column slices, so compilation is per shard), its bitmaps and
// selection vector (in the shard's own row ids).
type scanShard struct {
	cs     *storage.ColStore
	nrows  int
	passes []scanPass
	bm, fb *vec.Bitmap
	spans  []span
	cnts   []int
	sel    []int32
}

// addCache registers one more requester cache on the task, under the
// sub-result key the requester's prepared state rendered for it.
// Distinct views of one store with the same prefix resolve to the same
// key, so they collapse into one ref.
func (t *batchTask) addCache(c *SkeletonCache, key string) {
	if c == nil {
		return
	}
	for i := range t.crefs {
		if t.crefs[i].cache.store == c.store && t.crefs[i].cache.prefix == c.prefix {
			return
		}
	}
	t.crefs = append(t.crefs, cacheRef{cache: c, key: key})
}

// primaryKey is the sig a freshly computed sub-result carries: the
// first registered cache's key, or "" for a fully uncached task, whose
// sig nothing reads.
func (t *batchTask) primaryKey() string {
	if len(t.crefs) == 0 {
		return ""
	}
	return t.crefs[0].key
}

// keyFor returns the task's sub-result key under the given cache's
// namespace, or "" when the task does not serve that cache.
func (t *batchTask) keyFor(c *SkeletonCache) string {
	for i := range t.crefs {
		if t.crefs[i].cache.store == c.store && t.crefs[i].cache.prefix == c.prefix {
			return t.crefs[i].key
		}
	}
	return ""
}

// lookupSub probes the task's caches in registration order and, on a
// hit, propagates the sub-result into the caches that missed — exactly
// what each of those requesters would have stored had it validated the
// subtree alone. Cached sub-results are content-addressed, so whichever
// cache answers, the counts are the ones a fresh execution would
// produce, byte for byte.
func (t *batchTask) lookupSub() *subResult {
	for i := range t.crefs {
		if sub, ok := t.crefs[i].cache.getSub(t.crefs[i].key); ok {
			t.storeSub(sub, i)
			return sub
		}
	}
	return nil
}

// storeSub writes a sub-result into every registered cache except the
// one at index skip (-1 stores everywhere). Each cache receives a view
// carrying its own key as sig, so hash-table keying against that cache
// stays consistent for later single-plan runs; the materialized columns
// are shared, never copied.
func (t *batchTask) storeSub(sub *subResult, skip int) {
	for i := range t.crefs {
		if i == skip {
			continue
		}
		cr := &t.crefs[i]
		s := sub
		if s.sig != cr.key {
			v := *sub
			v.sig, s = cr.key, &v
		}
		cr.cache.putSub(cr.key, s)
	}
}

// failWith records a captured panic on the task; the first capture
// wins when several spans of one task fail concurrently.
func (t *batchTask) failWith(cp *capturedPanic) {
	t.failed.CompareAndSwap(nil, cp)
}

// failedPanic returns the task's captured panic, if any.
func (t *batchTask) failedPanic() *capturedPanic {
	return t.failed.Load()
}

// batchBuilder deduplicates subtrees across the submitted plans.
type batchBuilder struct {
	tasks map[string]*batchTask
	order []*batchTask
}

// tasksFor returns the (possibly shared) task of every step of one
// compiled plan, creating each on first encounter, and registers cache
// (the submitting plan's) on all of them. prefix is the key prefix of
// the prepared state that compiled the steps.
func (b *batchBuilder) tasksFor(steps []Step, prefix string, cache *SkeletonCache) ([]*batchTask, error) {
	tasks := make([]*batchTask, len(steps))
	for si := range steps {
		st := &steps[si]
		key := st.Set.key[len(prefix):] // prefix-free: requesters holding different caches share the task
		bt, ok := b.tasks[key]
		if !ok {
			bt = &batchTask{seq: len(b.order), sig: st.Set.sig, refs: st.Set.refs, scan: st.scan, join: st.join}
			if st.scan != nil {
				var err error
				if bt.filterPos, bt.boundPos, err = scanPositions(st.scan, bt.refs); err != nil {
					return nil, err
				}
			} else {
				bt.left, bt.right = tasks[st.left], tasks[st.right]
				bt.wave = max(bt.left.wave, bt.right.wave) + 1
				bt.ksuffix = st.join.tkey[len(steps[st.right].Set.key):]
			}
			b.tasks[key] = bt
			b.order = append(b.order, bt)
		}
		bt.addCache(cache, st.Set.key)
		tasks[si] = bt
	}
	return tasks, nil
}

// --- Combined work-list scheduling ---

// maxChunkRows bounds a batch span from above: beyond it, larger spans
// only worsen load balancing across heterogeneous tasks.
const maxChunkRows = 4096

// adaptiveChunk sizes the spans of one wave's combined work list from
// the wave's total row count: a quarter of the per-worker share (the
// oversubscription smooths out tasks of uneven size), clamped to
// [vec.WordBits, maxChunkRows] and rounded up to a bitmap-word
// multiple so concurrent spans of one bitmap never share a word. This
// replaces the single-plan engine's fixed per-pass minChunkRows: a
// 300-row sample that never fans out alone still splits across workers
// when it is the only work, and packs with its batch peers otherwise.
func adaptiveChunk(total, workers int) int {
	c := total / (workers * 4)
	if c > maxChunkRows {
		c = maxChunkRows
	}
	if c < vec.WordBits {
		c = vec.WordBits
	}
	return (c + vec.WordBits - 1) &^ (vec.WordBits - 1)
}

// chunkSpans splits [0, n) into contiguous spans of the given chunk
// size (the last may be short). chunk must be a bitmap-word multiple.
func chunkSpans(n, chunk int) []span {
	if n <= 0 {
		return nil
	}
	out := make([]span, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, span{lo, hi})
	}
	return out
}

// workUnit is one span-sized piece of a wave phase: the work itself
// plus where a panic inside it is attributed. fail must be safe to call
// from any worker goroutine (it CASes a task's failure slot); a failed
// unit counts as complete, so the phase still finishes for every other
// unit and the pool never unwinds.
type workUnit struct {
	run  func()
	fail func(*capturedPanic)
}

// exec runs the unit, converting a panic into its failure attribution.
func (u workUnit) exec() {
	defer func() {
		if r := recover(); r != nil {
			u.fail(capturePanic(r))
		}
	}()
	u.run()
}

// runPool drains units across up to workers goroutines. Units must
// write disjoint state; completion order is irrelevant to the result.
// A cancelled ctx stops workers from claiming further units (in-flight
// units finish — they are span-sized, so the abort latency is bounded)
// and runPool returns ctx.Err(); the caller must then discard the
// phase's partial outputs instead of finalizing them. A unit that
// panics fails only its own task (workUnit.exec); the pool completes.
func runPool(ctx context.Context, workers int, units []workUnit) error {
	if len(units) == 0 {
		return nil
	}
	if workers > len(units) {
		workers = len(units)
	}
	if workers <= 1 {
		for i, u := range units {
			// Amortize the ctx check for micro-units; i&7 keeps the
			// abort latency within 8 spans.
			if i&7 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			u.exec()
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Poll on every claim: units are span-sized (dozens to
			// thousands of rows of real work), so the ctx check is noise
			// next to the unit, and each worker stops after at most its
			// one in-flight unit — the latency bound the API documents.
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) || ctx.Err() != nil {
					return
				}
				units[i].exec()
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// --- Scan wave ---

// passCacheKey identifies one compiled filter conjunct: compiling is
// per (table, predicate, shard), so the batch compiles each table's
// union of scan filters exactly once per shard no matter how many plans
// scan it. The shard index is part of the key because passes close over
// the shard's column slices.
type passCacheKey struct {
	table  string
	filter string
	shard  int
}

// scanGroup is one wave's shared scan over the instances of one
// template (SkelConfig.Templates): the members' constant vectors union
// into the loosest instance, the group scans the sample once with that
// union selection, and each member refines per-constant over the
// materialized rows — cheap bitmap passes over gathered filter columns
// instead of per-member sample scans. Containment per conjunct
// guarantees every member's rows survive the union scan, so refined
// results are byte-identical to solo execution.
type scanGroup struct {
	tmpl    scanTemplate // first member's template (canonical bookkeeping)
	consts  []rel.Value  // union (loosest) constant vector across members
	members []*batchTask
	shards  []groupShard
	ok      bool // union fold has succeeded so far
}

// groupShard is the per-shard scratch of one shared template scan; the
// group-level counterpart of scanShard, plus the filter columns
// gathered at the union selection that member refinement evaluates.
type groupShard struct {
	cs     *storage.ColStore
	nrows  int
	passes []scanPass
	bm, fb *vec.Bitmap
	spans  []span
	cnts   []int
	usel   []int32
	fcols  []storage.ColData
}

// failAll attributes a shared-scan failure to every member: the union
// scan is joint work no single member can be blamed for, so a panic in
// it fails exactly the queries riding the template — and nothing else.
func (g *scanGroup) failAll(cp *capturedPanic) {
	for _, t := range g.members {
		t.failWith(cp)
	}
}

// failed reports whether the group's shared scan failed. Group units
// fail every member, and members run no other units before refinement,
// so the first member's state is the group's.
func (g *scanGroup) failed() bool { return g.members[0].failedPanic() != nil }

// formScanGroups groups a wave's templated cache-missed tasks by
// template — fingerprint-bucketed, every bucket hit collision-checked
// against the full signature — and folds each group's constants into
// the union instance, in task creation order (deterministic at every
// worker and shard count). Only groups of two or more instances whose
// EVERY conjunct unions execute a shared scan: an un-unionable conjunct
// (equality templates with distinct constants) would widen the shared
// scan toward the whole sample, so those members stay solo.
func formScanGroups(work []*batchTask) []*scanGroup {
	buckets := map[uint64][]*scanGroup{}
	var groups []*scanGroup
	for _, t := range work {
		if !t.tmplOK {
			continue
		}
		var g *scanGroup
		for _, c := range buckets[t.tmpl.fp] {
			if c.tmpl.sig == t.tmpl.sig {
				g = c
				break
			}
		}
		if g == nil {
			g = &scanGroup{tmpl: t.tmpl, consts: t.tmpl.consts, members: []*batchTask{t}, ok: true}
			buckets[t.tmpl.fp] = append(buckets[t.tmpl.fp], g)
			groups = append(groups, g)
			continue
		}
		g.members = append(g.members, t)
		if g.ok {
			g.consts, g.ok = unionConsts(g.tmpl.ops, g.consts, t.tmpl.consts)
		}
	}
	live := groups[:0]
	for _, g := range groups {
		if !g.ok || len(g.members) < 2 {
			continue
		}
		for _, t := range g.members {
			t.group = g
		}
		live = append(live, g)
	}
	return live
}

// templateLookup probes every requester cache's template index for a
// containing instance of the task's template and, on a hit, serves the
// task by refinement: the derived sub-result is stored under every
// requester's exact key (repeats of this constant then hit outright),
// exactly as if the task had been computed fresh.
func (t *batchTask) templateLookup() bool {
	for i := range t.crefs {
		tc, ok := t.crefs[i].cache.getTemplate(t.tmpl)
		if !ok {
			continue
		}
		sc := getScratch()
		sub := refineCachedTemplate(sc, tc, t.tmpl, t.scan.Filters, t.primaryKey())
		putScratch(sc)
		if sub == nil {
			continue
		}
		t.sub = sub
		t.storeSub(sub, -1)
		return true
	}
	return false
}

// storeTemplate registers the task's computed scan in every requester
// cache's template index: the boundary and filter columns are gathered
// once at the final selection and shared across the caches.
func (t *batchTask) storeTemplate() {
	if len(t.crefs) == 0 {
		return
	}
	bcols, fcols := gatherColsAt(t.store, t.boundPos, t.sel), gatherColsAt(t.store, t.tmpl.fpos, t.sel)
	for i := range t.crefs {
		cr := &t.crefs[i]
		cr.cache.putTemplate(cr.key, t.tmpl, len(t.sel), bcols, fcols)
	}
}

// runScanWave executes all leaf-scan tasks of the batch: sequential
// setup (cache probes, binding, one-time filter compilation, template
// grouping), then the combined parallel phases — filter bitmaps,
// selection-vector materialization, then (for template groups) filter-
// column gathers and per-member refinement, and finally boundary-column
// compaction — the first two a single span list over every pending
// task's shards, the last one unit per task. With shards > 1 each sample
// scan becomes per-shard work items, so the wave fans out across workers
// even when one sample alone is too small to split; the shards'
// selections concatenate in shard order before compaction, and shard
// identity never reaches sub-results or cache keys. With templates on,
// tasks sharing a template run one union scan per group and refine
// per-constant (scanGroup); results are byte-identical either way. A
// ctx abort between or during phases returns before the final stage,
// so nothing partial reaches any cache.
func runScanWave(ctx context.Context, tasks []*batchTask, binder func(string) (*storage.Table, error), workers, shards int, templates bool) error {
	passCache := map[passCacheKey][]scanPass{}
	var pending []*batchTask
	for _, t := range tasks {
		if sub := t.lookupSub(); sub != nil {
			t.sub = sub
			continue
		}
		if templates {
			t.tmpl, t.tmplOK = scanTemplateOf(t.scan, t.refs, t.filterPos)
			if t.tmplOK && t.templateLookup() {
				continue
			}
		}
		tab, err := binder(t.scan.Table)
		if err != nil {
			return err
		}
		t.store = tab.ColData()
		stores := []*storage.ColStore{t.store}
		if shards > 1 {
			stores = tab.ColDataShards(shards)
		}
		t.shards = make([]scanShard, len(stores))
		for si, cs := range stores {
			sh := &t.shards[si]
			sh.cs = cs
			sh.nrows = cs.NumRows()
		}
		pending = append(pending, t)
	}
	if len(pending) == 0 {
		return nil
	}
	var groups []*scanGroup
	if templates {
		groups = formScanGroups(pending)
	}

	// Compile filter passes: per solo task (each conjunct cached per
	// (table, predicate, shard) across the batch) and per group (the
	// union conjuncts, canonical order). Group members compile nothing
	// here — their conjuncts run in refinement, over gathered columns.
	total := 0
	for _, t := range pending {
		if t.group != nil {
			continue
		}
		for si := range t.shards {
			sh := &t.shards[si]
			for fi, f := range t.scan.Filters {
				pk := passCacheKey{t.scan.Table, f.String(), si}
				ps, ok := passCache[pk]
				if !ok {
					ps = appendFilterPasses(nil, sh.cs.Col(t.filterPos[fi]), f)
					passCache[pk] = ps
				}
				sh.passes = append(sh.passes, ps...)
			}
			total += sh.nrows
		}
	}
	for _, g := range groups {
		m0 := g.members[0]
		ufilters := g.tmpl.instanceFilters(m0.scan.Filters, g.consts)
		g.shards = make([]groupShard, len(m0.shards))
		for si := range m0.shards {
			gsh := &g.shards[si]
			gsh.cs = m0.shards[si].cs
			gsh.nrows = m0.shards[si].nrows
			for ci, f := range ufilters {
				pk := passCacheKey{m0.scan.Table, f.String(), si}
				ps, ok := passCache[pk]
				if !ok {
					ps = appendFilterPasses(nil, gsh.cs.Col(g.tmpl.fpos[g.tmpl.fcol[ci]]), f)
					passCache[pk] = ps
				}
				gsh.passes = append(gsh.passes, ps...)
			}
			total += gsh.nrows
		}
	}
	chunk := adaptiveChunk(total, workers)

	// Phase 1: filter passes over every shard's rows, one combined span
	// list. Identity scans (no filters) fill their selection vector
	// directly; template groups run their union passes as shared units
	// whose failure fails every member. Per-span counts feed the offsets
	// below.
	var units []workUnit
	for _, t := range pending {
		if t.group != nil {
			continue
		}
		t := t
		for si := range t.shards {
			si, sh := si, &t.shards[si]
			sh.spans = chunkSpans(sh.nrows, chunk)
			if len(sh.passes) > 0 {
				sh.bm = vec.NewBitmap(sh.nrows)
				if len(sh.passes) > 1 {
					sh.fb = vec.NewBitmap(sh.nrows)
				}
				sh.cnts = make([]int, len(sh.spans))
				for spi := range sh.spans {
					spi := spi
					units = append(units, workUnit{fail: t.failWith, run: func() {
						if faultinject.Active() {
							faultinject.Fire(faultinject.ScanUnit, t.sig)
							faultinject.Fire(faultinject.ShardUnit, fmt.Sprintf("%s#shard=%d", t.sig, si))
						}
						s := sh.spans[spi]
						sh.passes[0](sh.bm, s.lo, s.hi)
						for _, pass := range sh.passes[1:] {
							pass(sh.fb, s.lo, s.hi)
							sh.bm.And(sh.fb, s.lo, s.hi)
						}
						sh.cnts[spi] = sh.bm.Count(s.lo, s.hi)
					}})
				}
			} else {
				sh.sel = make([]int32, sh.nrows)
				for spi := range sh.spans {
					spi := spi
					units = append(units, workUnit{fail: t.failWith, run: func() {
						if faultinject.Active() {
							faultinject.Fire(faultinject.ScanUnit, t.sig)
							faultinject.Fire(faultinject.ShardUnit, fmt.Sprintf("%s#shard=%d", t.sig, si))
						}
						s := sh.spans[spi]
						for i := s.lo; i < s.hi; i++ {
							sh.sel[i] = int32(i)
						}
					}})
				}
			}
		}
	}
	for _, g := range groups {
		g := g
		for si := range g.shards {
			si, gsh := si, &g.shards[si]
			gsh.spans = chunkSpans(gsh.nrows, chunk)
			gsh.bm = vec.NewBitmap(gsh.nrows)
			if len(gsh.passes) > 1 {
				gsh.fb = vec.NewBitmap(gsh.nrows)
			}
			gsh.cnts = make([]int, len(gsh.spans))
			for spi := range gsh.spans {
				spi := spi
				units = append(units, workUnit{fail: g.failAll, run: func() {
					if faultinject.Active() {
						faultinject.Fire(faultinject.TemplateUnit, g.tmpl.sig)
						faultinject.Fire(faultinject.ShardUnit, fmt.Sprintf("%s#shard=%d", g.tmpl.sig, si))
					}
					s := gsh.spans[spi]
					gsh.passes[0](gsh.bm, s.lo, s.hi)
					for _, pass := range gsh.passes[1:] {
						pass(gsh.fb, s.lo, s.hi)
						gsh.bm.And(gsh.fb, s.lo, s.hi)
					}
					gsh.cnts[spi] = gsh.bm.Count(s.lo, s.hi)
				}})
			}
		}
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}

	// Phase 2: materialize surviving row ids per shard, spans writing
	// disjoint ranges at precomputed offsets so each shard's selection
	// is in ascending row order regardless of completion order. Tasks
	// failed in phase 1 are skipped: their bitmaps may be partial.
	// Groups materialize the union selection the same way.
	units = units[:0]
	for _, t := range pending {
		if t.failedPanic() != nil || t.group != nil {
			continue
		}
		t := t
		for si := range t.shards {
			sh := &t.shards[si]
			if len(sh.passes) == 0 {
				continue
			}
			totalSel := 0
			offs := make([]int, len(sh.spans))
			for spi, c := range sh.cnts {
				offs[spi] = totalSel
				totalSel += c
			}
			sh.sel = make([]int32, totalSel)
			for spi := range sh.spans {
				if sh.cnts[spi] == 0 {
					continue
				}
				spi, off, cnt := spi, offs[spi], sh.cnts[spi]
				units = append(units, workUnit{fail: t.failWith, run: func() {
					s := sh.spans[spi]
					sh.bm.AppendIndices(sh.sel[off:off:off+cnt], s.lo, s.hi)
				}})
			}
		}
	}
	for _, g := range groups {
		if g.failed() {
			continue
		}
		g := g
		for si := range g.shards {
			gsh := &g.shards[si]
			totalSel := 0
			offs := make([]int, len(gsh.spans))
			for spi, c := range gsh.cnts {
				offs[spi] = totalSel
				totalSel += c
			}
			gsh.usel = make([]int32, totalSel)
			for spi := range gsh.spans {
				if gsh.cnts[spi] == 0 {
					continue
				}
				spi, off, cnt := spi, offs[spi], gsh.cnts[spi]
				units = append(units, workUnit{fail: g.failAll, run: func() {
					s := gsh.spans[spi]
					gsh.bm.AppendIndices(gsh.usel[off:off:off+cnt], s.lo, s.hi)
				}})
			}
		}
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}

	// Gather each live group's filter columns at the union selection —
	// the rows member refinement re-evaluates — one unit a shard.
	units = units[:0]
	for _, g := range groups {
		if g.failed() {
			continue
		}
		g := g
		for si := range g.shards {
			gsh := &g.shards[si]
			units = append(units, workUnit{fail: g.failAll, run: func() {
				gsh.fcols = gatherColsAt(gsh.cs, g.tmpl.fpos, gsh.usel)
			}})
		}
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}

	// Refine each member over the gathered columns — its own constants,
	// evaluated on the union rows — then map surviving positions back to
	// sample row ids. Containment makes this exact: every row a member's
	// solo scan would select survives the looser union scan, and both
	// walks ascend, so the refined selection is byte-identical to solo.
	// Refinement failures are the member's own (failWith, not failAll).
	units = units[:0]
	for _, g := range groups {
		if g.failed() {
			continue
		}
		for _, t := range g.members {
			t, g := t, g
			for si := range t.shards {
				si := si
				units = append(units, workUnit{fail: t.failWith, run: func() {
					gsh := &g.shards[si]
					sel := refineTemplate(t.tmpl, t.scan.Filters, gsh.fcols, len(gsh.usel))
					for i, p := range sel {
						sel[i] = gsh.usel[p]
					}
					t.shards[si].sel = sel
				}})
			}
		}
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}

	// Phase 3: compact each task's boundary columns at its selection — the
	// shards' selections re-based to sample row ids and concatenated in
	// shard order, i.e. the monolithic selection. One unit per task:
	// compaction is one pass in row order.
	units = units[:0]
	for _, t := range pending {
		if t.failedPanic() != nil {
			continue
		}
		t := t
		units = append(units, workUnit{fail: t.failWith, run: func() {
			t.sel = t.shards[0].sel
			if len(t.shards) > 1 {
				t.sel = nil
				base := int32(0)
				for si := range t.shards {
					for _, r := range t.shards[si].sel {
						t.sel = append(t.sel, base+r)
					}
					base += int32(t.shards[si].nrows)
				}
			}
			sc := getScratch()
			t.sub = scanSub(sc, t.primaryKey(), t.store, t.boundPos, t.sel)
			putScratch(sc)
		}})
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}

	for _, t := range pending {
		// A failed task computes no sub-result and must not poison any
		// cache; settleWave attributes the failure to its plans.
		if t.failedPanic() == nil {
			t.storeSub(t.sub, -1)
			if t.tmplOK {
				t.storeTemplate()
			}
		}
		t.shards, t.store, t.sel, t.group = nil, nil, nil, nil
	}
	return nil
}

// --- Join waves ---

// tableBuildKey identifies one build-side hash table: the build input
// and the key columns over it. Distinct joins probing the same build
// side share one build even when their predicates differ textually.
type tableBuildKey struct {
	r    *subResult
	keys string
}

// tableBuild is one deduplicated hash-table construction and the tasks
// awaiting it.
type tableBuild struct {
	r     *subResult
	rkey  []int
	table *joinTable
	users []*batchTask
}

func intsKey(xs []int) string {
	b := make([]byte, 0, len(xs)*3)
	for _, x := range xs {
		b = append(b, byte(x), byte(x>>8), ',')
	}
	return string(b)
}

// runJoinWave executes one depth level of join tasks: sequential cache
// probes and key resolution, parallel deduplicated hash-table builds,
// then one combined probe span list, merged per task in span order. A
// ctx abort returns before any result or hash table reaches any cache.
func runJoinWave(ctx context.Context, tasks []*batchTask, workers int) error {
	var pending []*batchTask
	total := 0
	for _, t := range tasks {
		if sub := t.lookupSub(); sub != nil {
			t.sub = sub
			continue
		}
		// Resolve the hash-table key per cache: each cache knows the
		// build side under its own namespace (the right child's key
		// there), and the first cache holding the table supplies it.
		for i := range t.crefs {
			cr := &t.crefs[i]
			rkey := t.right.keyFor(cr.cache)
			if rkey == "" {
				continue
			}
			cr.tkey = rkey + t.ksuffix
			cr.table = cr.cache.getTable(cr.tkey)
			if t.table == nil {
				t.table = cr.table
			}
		}
		pending = append(pending, t)
		total += t.left.sub.count
	}
	if len(pending) == 0 {
		return nil
	}
	chunk := adaptiveChunk(total, workers)

	// Phase 1: build the missing hash tables, deduplicated by (build
	// input, key columns) and run in parallel across tasks — each build
	// itself is one sequential pass (buildHashTable).
	builds := map[tableBuildKey]*tableBuild{}
	var buildOrder []*tableBuild
	for _, t := range pending {
		if t.table != nil {
			continue
		}
		bk := tableBuildKey{t.right.sub, intsKey(t.join.rkey)}
		tb, ok := builds[bk]
		if !ok {
			tb = &tableBuild{r: t.right.sub, rkey: t.join.rkey}
			builds[bk] = tb
			buildOrder = append(buildOrder, tb)
		}
		tb.users = append(tb.users, t)
	}
	units := make([]workUnit, 0, len(buildOrder))
	for _, tb := range buildOrder {
		tb := tb
		// A failed build fails every task awaiting the table: they have
		// nothing to probe.
		fail := func(cp *capturedPanic) {
			for _, t := range tb.users {
				t.failWith(cp)
			}
		}
		units = append(units, workUnit{fail: fail, run: func() {
			if faultinject.Active() {
				faultinject.Fire(faultinject.BuildUnit, tb.users[0].sig)
			}
			tb.table = buildHashTable(tb.r, tb.rkey)
		}})
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}
	for _, tb := range buildOrder {
		for _, t := range tb.users {
			t.table = tb.table
		}
	}
	// Store each task's table — freshly built, or found in only some of
	// its caches — under every registered cache, so each requester's
	// cache is as warm as a solo run would have left it.
	for _, t := range pending {
		t.storeTable(t.table)
	}

	// Phase 2: one combined probe span list over every pending task's
	// left rows; each span records its matches in a private part. Tasks
	// whose build failed are skipped — there is no table to probe.
	units = units[:0]
	for _, t := range pending {
		if t.failedPanic() != nil {
			continue
		}
		t, jp := t, t.joinProbe()
		t.pspans = chunkSpans(t.left.sub.count, chunk)
		t.parts = make([]probePart, len(t.pspans))
		for si := range t.pspans {
			si := si
			units = append(units, workUnit{fail: t.failWith, run: func() {
				if faultinject.Active() {
					faultinject.Fire(faultinject.ProbeUnit, t.sig)
				}
				s := t.pspans[si]
				part := &t.parts[si]
				part.pairs = getPairBuf()
				part.count = jp.probe(part.pairs, s.lo, s.hi)
			}})
		}
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}

	// Phase 3: concatenate each task's parts in span order — a sequential
	// probe's match list — and compact it into the task's sub-result. One
	// unit per task. Pair buffers go back to the pool only on this, the
	// complete path: an aborted wave or a failed task simply drops them.
	units = units[:0]
	for _, t := range pending {
		if t.failedPanic() != nil {
			continue
		}
		t, jp := t, t.joinProbe()
		units = append(units, workUnit{fail: t.failWith, run: func() {
			sc := getScratch()
			t.sub = jp.result(sc, t.parts, t.primaryKey())
			putScratch(sc)
		}})
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}

	for _, t := range pending {
		if t.failedPanic() == nil {
			t.storeSub(t.sub, -1)
		}
		t.table, t.parts, t.pspans = nil, nil, nil
	}
	return nil
}

// joinProbe assembles a join task's probe inputs once its children's
// sub-results and its hash table are in place.
func (t *batchTask) joinProbe() joinProbe {
	return joinProbe{l: t.left.sub, r: t.right.sub, table: t.table,
		lkey: t.join.lkey, rkey: t.join.rkey, gather: t.join.gather}
}

// storeTable caches a build-side hash table under every cache the task
// serves whose namespace resolved (cacheRef.tkey set in the wave's
// probe stage). putTable skips caches that no longer retain the build
// input's sub-result (possible under a tight value budget).
func (t *batchTask) storeTable(table *joinTable) {
	if table == nil {
		return
	}
	for i := range t.crefs {
		cr := &t.crefs[i]
		if cr.tkey == "" || cr.table != nil {
			continue
		}
		if rkey := t.right.keyFor(cr.cache); rkey != "" {
			cr.cache.putTable(rkey, cr.tkey, table)
		}
	}
}
