package sampling

// The deprecated Scheduler names are a direct path: a client validates
// on its caller's goroutine, under its caller's context, exactly as
// EstimatePlans does, and its stats stay zero.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"reopt/internal/executor"
	"reopt/internal/faultinject"
	"reopt/internal/plan"
)

// schedValidate registers a client, validates, and closes — one
// query's life cycle on a Scheduler.
func schedValidate(s *Scheduler, ctx context.Context, plans []*plan.Plan, cache Cache) ([]*Estimate, error) {
	c := s.Register()
	defer c.Close()
	return c.ValidatePlans(ctx, plans, cache)
}

// wantStatsZero fails the test unless s reports no waves.
func wantStatsZero(t *testing.T, s *Scheduler) {
	t.Helper()
	if st := s.Stats(); st != (SchedulerStats{}) {
		t.Errorf("stats = %+v, want zero", st)
	}
}

// TestSchedulerLoneRequestFlushesImmediately: a lone request is answered
// at once, whatever window the scheduler was built with, with the direct
// estimator's estimates.
func TestSchedulerLoneRequestFlushesImmediately(t *testing.T) {
	cat, plans := batchSetup(t, 1)
	s := NewScheduler(cat, 2, time.Hour)
	got, err := schedValidate(s, context.Background(), plans[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := estimateOne(plans[0], cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "sched", 0, "lone request", got[0], want)
	wantStatsZero(t, s)
}

// TestSchedulerEquivalence: concurrent clients of one scheduler get
// estimates byte-identical to the direct estimator's, whatever the
// deprecated arguments say and whichever cache scope they validate
// through.
func TestSchedulerEquivalence(t *testing.T) {
	cat, plans := batchSetup(t, 4)
	want := make([]*Estimate, len(plans))
	for i, p := range plans {
		e, err := estimateOne(p, cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = e
	}
	for _, w := range []int{0, 8} {
		for _, cacheMode := range []string{"nil", "perrun", "workload"} {
			s := NewScheduler(cat, w, time.Hour)
			var shared Cache
			if cacheMode == "workload" {
				// One handle for every requester: the others' plans
				// validate through handles of their own over its store.
				shared = mustPrepare(t, plans[0].Query, workloadStore(), cat)
			}
			caches := make([]Cache, len(plans))
			for i := range plans {
				caches[i] = shared
				if cacheMode == "perrun" {
					caches[i] = mustPrepare(t, plans[i].Query, perRun(), cat)
				}
			}
			var wg sync.WaitGroup
			errs := make([]error, len(plans))
			got := make([][]*Estimate, len(plans))
			for i := range plans {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = schedValidate(s, context.Background(), plans[i:i+1], caches[i])
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
			wantStatsZero(t, s)
		}
	}
}

// TestSchedulerCancelQueuedRequest: a requester whose ctx is already
// cancelled gets its ctx error, and the scheduler keeps serving.
func TestSchedulerCancelQueuedRequest(t *testing.T) {
	cat, plans := batchSetup(t, 2)
	s := NewScheduler(cat, 2, time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := schedValidate(s, ctx, plans[:1], nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled requester returned %v, want context.Canceled", err)
	}
	got, err := schedValidate(s, context.Background(), plans[1:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := estimateOne(plans[1], cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "sched", 1, "after cancel", got[0], want)
}

// stallEstimates holds every estimate call at its head until release is
// closed. Each of the test's estimate calls, of which there are calls,
// first sends on the returned channel, which is buffered for all of them.
func stallEstimates(t *testing.T, calls int) (arrived chan struct{}, release chan struct{}) {
	t.Helper()
	arrived, release = make(chan struct{}, calls), make(chan struct{})
	var fi faultinject.Set
	fi.On(faultinject.Rule{Point: faultinject.Estimate, Do: func(faultinject.Point, string) {
		arrived <- struct{}{}
		<-release
	}})
	t.Cleanup(fi.Activate())
	return arrived, release
}

// TestSchedulerCancelOneMidWave: of two clients validating at once,
// cancelling one mid-validation fails that one with its ctx error and
// leaves the other's estimates byte-identical to the direct path.
func TestSchedulerCancelOneMidWave(t *testing.T) {
	cat, plans := batchSetup(t, 2)
	s := NewScheduler(cat, 2, time.Hour)
	arrived, release := stallEstimates(t, 2)
	actx, cancelA := context.WithCancel(context.Background())
	defer cancelA()

	aDone := make(chan error, 1)
	bDone := make(chan error, 1)
	var bEsts []*Estimate
	go func() {
		_, err := schedValidate(s, actx, plans[:1], nil)
		aDone <- err
	}()
	go func() {
		var err error
		bEsts, err = schedValidate(s, context.Background(), plans[1:2], nil)
		bDone <- err
	}()
	<-arrived
	<-arrived // both validations are in flight
	cancelA()
	close(release)
	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled requester returned %v, want context.Canceled", err)
	}
	if err := <-bDone; err != nil {
		t.Fatalf("surviving requester: %v", err)
	}
	want, err := estimateOne(plans[1], cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "sched", 1, "survivor", bEsts[0], want)
}

// TestSchedulerAllCancelledAbortsWave: two clients terminated
// mid-validation, one cancelled and one past its deadline, each report
// their own cause, which core's budget semantics tell apart.
func TestSchedulerAllCancelledAbortsWave(t *testing.T) {
	cat, plans := batchSetup(t, 2)
	s := NewScheduler(cat, 2, time.Hour)
	arrived, release := stallEstimates(t, 2)
	actx, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	bctx, cancelB := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelB()

	aDone := make(chan error, 1)
	bDone := make(chan error, 1)
	go func() {
		_, err := schedValidate(s, actx, plans[:1], nil)
		aDone <- err
	}()
	go func() {
		_, err := schedValidate(s, bctx, plans[1:2], nil)
		bDone <- err
	}()
	<-arrived
	<-arrived
	cancelA()
	<-bctx.Done()
	close(release)
	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled requester returned %v, want context.Canceled", err)
	}
	if err := <-bDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline requester returned %v, want context.DeadlineExceeded", err)
	}
}

// TestSchedulerLoneWaveRunsOnRequester: a client's validation runs on
// its caller's goroutine, under its caller's context — no goroutine is
// started, a cancellation mid-validation stops it with the caller's own
// error — and a panic inside it fails the call with ErrValidationPanic.
func TestSchedulerLoneWaveRunsOnRequester(t *testing.T) {
	cat, plans := batchSetup(t, 1)
	s := NewScheduler(cat, 1, time.Hour)
	c := s.Register()
	defer c.Close()

	before := runtime.NumGoroutine()
	during := before
	var fi faultinject.Set
	fi.On(faultinject.Rule{Point: faultinject.SkelNode, Do: func(faultinject.Point, string) {
		during = max(during, runtime.NumGoroutine())
	}})
	restore := fi.Activate()
	got, err := c.ValidatePlans(context.Background(), plans, nil)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	// Earlier tests' goroutines may still be winding down; none may start.
	if during > before || runtime.NumGoroutine() > before {
		t.Errorf("goroutines: %d before, %d during, %d after a validation", before, during, runtime.NumGoroutine())
	}
	want, err := estimateOne(plans[0], cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "sched", 0, "on requester", got[0], want)

	// Cancelled after the call began: the engine's next check stops it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelAt faultinject.Set
	cancelAt.CancelAt(faultinject.Estimate, "", cancel)
	restore = cancelAt.Activate()
	_, err = c.ValidatePlans(ctx, plans, nil)
	restore()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled requester returned %v, want context.Canceled", err)
	}

	var panicAt faultinject.Set
	panicAt.PanicAt(faultinject.SkelNode, "")
	restore = panicAt.Activate()
	_, err = c.ValidatePlans(context.Background(), plans, nil)
	restore()
	if !errors.Is(err, executor.ErrValidationPanic) {
		t.Fatalf("panicking validation returned %v, want ErrValidationPanic", err)
	}
	wantStatsZero(t, s)
}
