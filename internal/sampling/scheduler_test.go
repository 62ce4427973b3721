package sampling

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/plan"
)

// hugeWindow makes the gather timer irrelevant: any test completing
// under it proves a non-timer flush trigger fired.
const hugeWindow = time.Hour

// schedValidate registers a client, validates, and closes — one
// scheduled query's life cycle.
func schedValidate(s *Scheduler, ctx context.Context, plans []*plan.Plan, cache Cache) ([]*Estimate, error) {
	c := s.Register()
	defer c.Close()
	return c.ValidatePlans(ctx, plans, cache)
}

// TestSchedulerLoneRequestFlushesImmediately: with a single in-flight
// query the all-waiting trigger fires on submission, so serial traffic
// pays no gather latency — the test would hang for an hour otherwise.
func TestSchedulerLoneRequestFlushesImmediately(t *testing.T) {
	cat, plans := batchSetup(t, 1)
	s := NewScheduler(cat, 2, hugeWindow)
	got, err := schedValidate(s, context.Background(), plans[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EstimatePlan(plans[0], cat)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "sched", 0, "lone request", got[0], want)
	stats := s.Stats()
	if stats.Waves != 1 || stats.Requests != 1 || stats.Coalesced != 0 {
		t.Errorf("stats = %+v, want 1 wave, 1 request, 0 coalesced", stats)
	}
}

// TestSchedulerEquivalence: estimates delivered through coalesced waves
// must be byte-identical to the direct estimator, for every requester,
// at several worker counts and cache scopes — the scheduler may change
// when counts are computed, never their values.
func TestSchedulerEquivalence(t *testing.T) {
	cat, plans := batchSetup(t, 4)
	want := make([]*Estimate, len(plans))
	for i, p := range plans {
		e, err := EstimatePlan(p, cat)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = e
	}
	for _, w := range []int{0, 1, 2, 8} { // the deprecated argument selects nothing
		for _, cacheMode := range []string{"nil", "perrun", "workload"} {
			s := NewScheduler(cat, w, hugeWindow)
			var shared Cache
			if cacheMode == "workload" {
				shared = Prepare(nil, NewWorkloadCache(0))
			}
			var wg sync.WaitGroup
			errs := make([]error, len(plans))
			got := make([][]*Estimate, len(plans))
			for i := range plans {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					cache := shared
					if cacheMode == "perrun" {
						cache = Prepare(plans[i].Query, perRun())
					}
					got[i], errs[i] = schedValidate(s, context.Background(), plans[i:i+1], cache)
				}(i)
			}
			wg.Wait()
			mode := fmt.Sprintf("workers=%d cache=%s", w, cacheMode)
			for i := range plans {
				if errs[i] != nil {
					t.Fatalf("%s requester %d: %v", mode, i, errs[i])
				}
				compareEstimates(t, "sched", i, mode, got[i][0], want[i])
			}
		}
	}
}

// TestSchedulerCoalescesAllWaiting: when every registered query is
// blocked on validation the wave must flush without waiting out the
// gather window, and the wave must actually be shared.
func TestSchedulerCoalescesAllWaiting(t *testing.T) {
	cat, plans := batchSetup(t, 2)
	s := NewScheduler(cat, 2, hugeWindow)
	a, b := s.Register(), s.Register()
	defer a.Close()
	defer b.Close()

	var wg sync.WaitGroup
	run := func(c *SchedulerClient, p *plan.Plan) {
		defer wg.Done()
		if _, err := c.ValidatePlans(context.Background(), []*plan.Plan{p}, nil); err != nil {
			t.Error(err)
		}
	}
	wg.Add(2)
	go run(a, plans[0])
	go run(b, plans[1])
	wg.Wait()
	stats := s.Stats()
	if stats.Waves != 1 || stats.Coalesced != 2 {
		t.Errorf("stats = %+v, want both requests coalesced into 1 wave", stats)
	}
}

// TestSchedulerGatherWindowFlush: a request must not wait forever on a
// registered query that is still planning — the gather window bounds
// its latency.
func TestSchedulerGatherWindowFlush(t *testing.T) {
	cat, plans := batchSetup(t, 1)
	s := NewScheduler(cat, 2, time.Millisecond)
	busy := s.Register() // never submits: simulates a long optimizer round
	defer busy.Close()
	if _, err := schedValidate(s, context.Background(), plans[:1], nil); err != nil {
		t.Fatal(err)
	}
	if stats := s.Stats(); stats.Waves != 1 {
		t.Errorf("stats = %+v, want the window to have flushed 1 wave", stats)
	}
}

// TestSchedulerCloseFlushes: a query finishing (Close) can be what
// makes the rest all-waiting; the flush must not wait for the window.
func TestSchedulerCloseFlushes(t *testing.T) {
	cat, plans := batchSetup(t, 1)
	s := NewScheduler(cat, 2, hugeWindow)
	finishing := s.Register()
	waiter := s.Register()
	defer waiter.Close()

	done := make(chan error, 1)
	go func() {
		_, err := waiter.ValidatePlans(context.Background(), plans[:1], nil)
		done <- err
	}()
	// Wait until the request is queued, then release the other query.
	for {
		if s.Stats().Requests == 1 {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	finishing.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerCancelQueuedRequest: cancelling a queued requester
// returns its ctx error immediately — it does not wait out the window —
// and the scheduler keeps serving the remaining queries.
func TestSchedulerCancelQueuedRequest(t *testing.T) {
	cat, plans := batchSetup(t, 2)
	s := NewScheduler(cat, 2, hugeWindow)
	busy := s.Register() // keeps the all-waiting trigger from firing
	a := s.Register()
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() {
		_, err := a.ValidatePlans(ctx, plans[:1], nil)
		done <- err
	}()
	for {
		if s.Stats().Requests == 1 {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled requester returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled requester did not return")
	}
	a.Close()
	busy.Close()

	// The scheduler must still serve the remaining queries normally.
	got, err := schedValidate(s, context.Background(), plans[1:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EstimatePlan(plans[1], cat)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "sched", 1, "after cancel", got[0], want)
}

// stallWave swaps the wave executor for one that parks until released,
// so tests can cancel requesters while their wave is provably in
// flight. Restore the original with the returned func.
func stallWave(t *testing.T) (started chan struct{}, release chan struct{}, restore func()) {
	t.Helper()
	started = make(chan struct{})
	release = make(chan struct{})
	orig := estimateGroupsFn
	estimateGroupsFn = func(ctx context.Context, groups []PlanGroup, cat *catalog.Catalog, cfg ValidateConfig) ([][]*Estimate, []error, error) {
		close(started)
		select {
		case <-release:
			return orig(ctx, groups, cat, cfg)
		case <-ctx.Done():
			return nil, nil, fmt.Errorf("sampling: batch skeleton run: %w", ctx.Err())
		}
	}
	return started, release, func() { estimateGroupsFn = orig }
}

// TestSchedulerCancelOneMidWave: with a wave in flight, cancelling one
// requester returns its ctx error promptly while the other requester's
// share completes with estimates byte-identical to the direct path —
// one query's cancellation must not poison or abort another's wave.
func TestSchedulerCancelOneMidWave(t *testing.T) {
	cat, plans := batchSetup(t, 2)
	started, release, restore := stallWave(t)
	defer restore()

	s := NewScheduler(cat, 2, hugeWindow)
	a, b := s.Register(), s.Register()
	defer a.Close()
	defer b.Close()
	actx, cancelA := context.WithCancel(context.Background())
	defer cancelA()

	aDone := make(chan error, 1)
	bDone := make(chan error, 1)
	var bEsts []*Estimate
	go func() {
		_, err := a.ValidatePlans(actx, plans[:1], nil)
		aDone <- err
	}()
	go func() {
		var err error
		bEsts, err = b.ValidatePlans(context.Background(), plans[1:2], nil)
		bDone <- err
	}()

	<-started // both requests coalesced; the wave is now parked
	cancelA()
	select {
	case err := <-aDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled requester returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled requester stayed blocked on the in-flight wave")
	}
	select {
	case err := <-bDone:
		t.Fatalf("surviving requester returned early (err=%v): wave aborted", err)
	default:
	}

	close(release)
	if err := <-bDone; err != nil {
		t.Fatalf("surviving requester: %v", err)
	}
	want, err := EstimatePlan(plans[1], cat)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "sched", 1, "survivor mid-wave", bEsts[0], want)
}

// TestSchedulerAllCancelledAbortsWave: when every requester of a wave
// is done, the wave's merged context cancels — the work has no consumer
// — and each requester reports its own termination cause (Canceled vs
// DeadlineExceeded), preserving core's budget semantics.
func TestSchedulerAllCancelledAbortsWave(t *testing.T) {
	cat, plans := batchSetup(t, 2)
	started, release, restore := stallWave(t)
	defer restore()
	defer close(release)

	s := NewScheduler(cat, 2, hugeWindow)
	a, b := s.Register(), s.Register()
	defer a.Close()
	defer b.Close()
	actx, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	bctx, cancelB := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelB()

	aDone := make(chan error, 1)
	bDone := make(chan error, 1)
	go func() {
		_, err := a.ValidatePlans(actx, plans[:1], nil)
		aDone <- err
	}()
	go func() {
		_, err := b.ValidatePlans(bctx, plans[1:2], nil)
		bDone <- err
	}()

	<-started
	cancelA()
	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled requester returned %v, want context.Canceled", err)
	}
	if err := <-bDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline requester returned %v, want context.DeadlineExceeded", err)
	}
}

// TestSchedulerLoneWaveRunsOnRequester: a wave of one request with no
// other query in flight runs on the requester's own goroutine, under the
// requester's own context — the engine sees that very context, no
// goroutine is started for the wave or to watch contexts, and a
// cancellation aborts the validation at the engine's next check with the
// requester's own error. Panics are still contained at the wave seam.
func TestSchedulerLoneWaveRunsOnRequester(t *testing.T) {
	cat, plans := batchSetup(t, 1)
	s := NewScheduler(cat, 1, hugeWindow)
	c := s.Register()
	defer c.Close()

	type ctxKey struct{}
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), ctxKey{}, "requester"))
	defer cancel()
	orig := estimateGroupsFn
	defer func() { estimateGroupsFn = orig }()
	var during int
	estimateGroupsFn = func(wctx context.Context, groups []PlanGroup, cat *catalog.Catalog, cfg ValidateConfig) ([][]*Estimate, []error, error) {
		if wctx.Value(ctxKey{}) != "requester" {
			t.Error("the lone wave did not run under the requester's context")
		}
		during = runtime.NumGoroutine()
		return orig(wctx, groups, cat, cfg)
	}
	before := runtime.NumGoroutine()
	got, err := c.ValidatePlans(ctx, plans, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Earlier tests' goroutines may still be winding down; none may start.
	if during > before || runtime.NumGoroutine() > before {
		t.Errorf("goroutines: %d before, %d during, %d after a lone validation", before, during, runtime.NumGoroutine())
	}
	want, err := EstimatePlan(plans[0], cat)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "sched", 0, "lone wave", got[0], want)

	// Cancelled between the engine's steps: the validation stops there.
	estimateGroupsFn = func(wctx context.Context, groups []PlanGroup, cat *catalog.Catalog, cfg ValidateConfig) ([][]*Estimate, []error, error) {
		cancel()
		return orig(wctx, groups, cat, cfg)
	}
	if _, err := c.ValidatePlans(ctx, plans, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lone requester returned %v, want context.Canceled", err)
	}

	estimateGroupsFn = func(context.Context, []PlanGroup, *catalog.Catalog, ValidateConfig) ([][]*Estimate, []error, error) {
		panic("boom")
	}
	if _, err := c.ValidatePlans(context.Background(), plans, nil); !errors.Is(err, executor.ErrValidationPanic) {
		t.Fatalf("panicking lone wave returned %v, want ErrValidationPanic", err)
	}
	if st := s.Stats(); st.Waves != 3 || st.Requests != 3 || st.Coalesced != 0 {
		t.Errorf("stats = %+v, want 3 waves, 3 requests, 0 coalesced", st)
	}
}
