package reopt_test

// Session-level tests for the workload validation scheduler
// (WithWorkloadScheduler): scheduled re-optimization must be an
// invisible optimization — byte-identical results at every parallelism,
// prompt per-query cancellation, coalescing observable only in the
// stats (and the clock).

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"reopt"
	"reopt/internal/faultinject"
)

// TestSessionSchedulerWorkloadEquivalence: ReoptimizeWorkload through
// the scheduler must produce results byte-identical to the serial,
// unscheduled path — per query, at parallelism 1, 2 and NumCPU, with
// and without the shared workload cache.
func TestSessionSchedulerWorkloadEquivalence(t *testing.T) {
	cat, qs := ottSession(t)
	ctx := context.Background()

	// Serial, unscheduled baseline: one query at a time, private caches.
	baseline, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][4]string, len(qs))
	for i, q := range qs {
		res, err := baseline.Reoptimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultKey(res)
	}

	for _, withCache := range []bool{false, true} {
		for _, par := range []int{1, 2, runtime.NumCPU()} {
			opts := []reopt.SessionOption{reopt.WithWorkloadScheduler(0)}
			label := "sched"
			if withCache {
				opts = append(opts, reopt.WithSharedCache(0))
				label = "sched+cache"
			}
			s, err := reopt.Open(cat, opts...)
			if err != nil {
				t.Fatal(err)
			}
			results, err := s.ReoptimizeWorkload(ctx, qs, par)
			if err != nil {
				t.Fatalf("%s parallelism=%d: %v", label, par, err)
			}
			for i, res := range results {
				if res == nil {
					t.Fatalf("%s parallelism=%d: query %d unanswered", label, par, i)
				}
				if resultKey(res) != want[i] {
					t.Errorf("%s parallelism=%d: query %d diverged from the serial path", label, par, i)
				}
			}
		}
	}
}

// TestSessionSchedulerCoalesces: at parallelism >= 2 the in-flight
// queries' validations must actually share waves — the stats, not just
// the results, prove the scheduler is on the path. On a single-proc
// host two workload workers can ping-pong without EVER overlapping in
// validation (each submission sees the other mid-optimize or not yet
// scheduled), so coalescing is genuinely not guaranteed there and the
// test skips; the deterministic all-waiting guarantee is covered at
// the sampling layer (TestSchedulerCoalescesAllWaiting), and CI's race
// job runs this test at GOMAXPROCS=2. Multi-proc, the test still
// drives repeated passes rather than asserting one pass coalesces.
func TestSessionSchedulerCoalesces(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2: single-proc workers may never overlap in validation")
	}
	cat, qs := ottSession(t)
	s, err := reopt.Open(cat,
		reopt.WithWorkloadScheduler(50*time.Millisecond),
		reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 30; pass++ {
		if _, err := s.ReoptimizeWorkload(context.Background(), qs, 2); err != nil {
			t.Fatal(err)
		}
		if s.SchedulerStats().Coalesced > 0 {
			break
		}
	}
	stats := s.SchedulerStats()
	if stats.Requests == 0 {
		t.Fatal("no validations flowed through the scheduler")
	}
	if stats.Coalesced == 0 {
		t.Errorf("no coalesced waves at parallelism 2 across 30 passes: %+v", stats)
	}
	if stats.Waves >= stats.Requests {
		t.Errorf("every request ran its own wave: %+v", stats)
	}
}

// TestSessionSchedulerStatsOffByDefault: without WithWorkloadScheduler
// the accessor reports zeros and nothing routes through a scheduler.
func TestSessionSchedulerStatsOffByDefault(t *testing.T) {
	cat, qs := ottSession(t)
	s, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reoptimize(context.Background(), qs[0]); err != nil {
		t.Fatal(err)
	}
	if stats := s.SchedulerStats(); stats != (reopt.SchedulerStats{}) {
		t.Errorf("scheduler stats non-zero without the option: %+v", stats)
	}
}

// TestSessionSchedulerWorkloadCancel: cancelling a scheduled workload
// returns promptly with ctx's error, and the session keeps producing
// correct results afterwards — no wave or registration is left behind
// wedging later calls.
func TestSessionSchedulerWorkloadCancel(t *testing.T) {
	cat, qs := ottSession(t)
	s, err := reopt.Open(cat,
		reopt.WithWorkloadScheduler(0), reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}

	// Hold the first validation at the estimator seam until the cancel
	// has landed: the whole workload takes a few milliseconds, so a bare
	// cancel() after the go statement can lose the race to it.
	var fi faultinject.Set
	started, gate := make(chan struct{}), make(chan struct{})
	blockAtEstimate(&fi, started, gate)
	restore := fi.Activate()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var werr error
	go func() {
		defer wg.Done()
		_, werr = s.ReoptimizeWorkload(ctx, qs, 2)
	}()
	<-started
	cancel()
	close(gate)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled scheduled workload did not return")
	}
	restore()
	if werr == nil {
		t.Fatal("cancelled workload must not succeed")
	}
	if !errors.Is(werr, context.Canceled) && !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("cancelled workload returned %v", werr)
	}

	fresh, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		got, err := s.Reoptimize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Reoptimize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(got) != resultKey(want) {
			t.Errorf("query %d: post-cancel scheduled session diverged", i)
		}
	}
}

// TestSessionSchedulerPerQueryBudget: per-query budgets (WithTimeout)
// keep their §5.4 best-so-far semantics under the scheduler — a spent
// budget yields a plan or a wrapped ErrBudgetExceeded, never a poisoned
// session.
func TestSessionSchedulerPerQueryBudget(t *testing.T) {
	cat, qs := ottSession(t)
	s, err := reopt.Open(cat,
		reopt.WithWorkloadScheduler(0), reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.ReoptimizeWorkload(context.Background(), qs, 2,
		reopt.WithTimeout(50*time.Millisecond))
	if err != nil && !errors.Is(err, reopt.ErrBudgetExceeded) {
		t.Fatalf("budgeted workload: %v", err)
	}
	answered := 0
	for _, res := range results {
		if res != nil {
			answered++
			if res.Final == nil {
				t.Error("budgeted query returned a result without a plan")
			}
		}
	}
	if err == nil && answered != len(qs) {
		t.Errorf("nil error but only %d/%d queries answered", answered, len(qs))
	}

	// The session must still serve full-budget traffic correctly.
	fresh, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Reoptimize(context.Background(), qs[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Reoptimize(context.Background(), qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(got) != resultKey(want) {
		t.Error("post-budget scheduled session diverged")
	}
}
