package reopt_test

// Session-level tests for the deprecated WithWorkloadScheduler option:
// it changes nothing. A session opened with it returns what a serial,
// uncached session returns at every parallelism, cancels and budgets
// per query as any session does, and reports zero SchedulerStats.

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

// TestSessionSchedulerWorkloadEquivalence: ReoptimizeWorkload with the
// option set produces results byte-identical to the serial path without
// it — per query, at parallelism 1, 2 and NumCPU, with and without the
// shared workload cache — and no scheduler stats.
func TestSessionSchedulerWorkloadEquivalence(t *testing.T) {
	cat, qs := ottSession(t)
	ctx := context.Background()

	// Serial baseline: one query at a time, private caches.
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
			wantNoSchedulerStats(t, s)
		}
	}
}

// wantNoSchedulerStats fails the test unless s reports zero
// SchedulerStats.
func wantNoSchedulerStats(t *testing.T, s *reopt.Session) {
	t.Helper()
	if stats := s.SchedulerStats(); stats != (reopt.SchedulerStats{}) {
		t.Errorf("scheduler stats non-zero: %+v", stats)
	}
}

// TestSessionSchedulerStatsOffByDefault: the accessor reports zeros, with
// the option and without it, after concurrent traffic.
func TestSessionSchedulerStatsOffByDefault(t *testing.T) {
	cat, qs := ottSession(t)
	for _, opts := range [][]reopt.SessionOption{nil, {reopt.WithWorkloadScheduler(0)}} {
		s, err := reopt.Open(cat, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReoptimizeWorkload(context.Background(), qs, 2); err != nil {
			t.Fatal(err)
		}
		wantNoSchedulerStats(t, s)
	}
}

// TestSessionSchedulerWorkloadCancel: cancelling a workload on a session
// opened with the option returns promptly with ctx's error, and the
// session keeps producing the results of a fresh session afterwards.
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
		t.Fatal("cancelled workload did not return")
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
			t.Errorf("query %d: post-cancel session diverged", i)
		}
	}
	wantNoSchedulerStats(t, s)
}

// TestSessionSchedulerPerQueryBudget: per-query budgets (WithTimeout)
// keep their §5.4 best-so-far semantics on a session opened with the
// option — a spent budget yields a plan or a wrapped ErrBudgetExceeded,
// never a poisoned session.
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
		t.Error("post-budget session diverged")
	}
	wantNoSchedulerStats(t, s)
}
