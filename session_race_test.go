package reopt_test

// Concurrency hammer for the Session front door. These tests are the
// race-detector gate for the "one Session, many goroutines" contract:
// CI runs the suite under -race (make race), where any unsynchronized
// access inside the shared optimizer, workload cache, or batch engine
// trips the detector. Beyond race freedom, the tests assert semantic
// stability: every concurrent result must be byte-identical to its
// sequential counterpart, and a sample rebuild must never let the
// shared cache serve counts observed on the previous sample set.

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"reopt"
)

// hammer runs fn(i, q) for every query from NumCPU goroutines pulling
// work off a shared index.
func hammer(t *testing.T, qs []*reopt.Query, passes int, fn func(i int, q *reopt.Query) error) {
	t.Helper()
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	jobs := make(chan int, len(qs)*passes)
	for p := 0; p < passes; p++ {
		for i := range qs {
			jobs <- i
		}
	}
	close(jobs)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := fn(i, qs[i]); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestSessionConcurrentHammer: NumCPU goroutines re-optimize and
// validate a mixed OTT workload through ONE session with a shared
// cache; every result must equal the sequential baseline.
func TestSessionConcurrentHammer(t *testing.T) {
	cat, qs := ottSession(t)
	ctx := context.Background()

	// Sequential baseline with its own cache.
	baseline, err := reopt.Open(cat, reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][4]string, len(qs))
	wantEst := make([]map[string]float64, len(qs))
	for i, q := range qs {
		res, err := baseline.Reoptimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultKey(res)
		p, err := baseline.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		ests, err := baseline.Validate(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		wantEst[i] = ests[0].Delta
	}

	s, err := reopt.Open(cat, reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	mismatches := 0
	hammer(t, qs, 3, func(i int, q *reopt.Query) error {
		res, err := s.Reoptimize(ctx, q)
		if err != nil {
			return err
		}
		p, err := s.Optimize(q)
		if err != nil {
			return err
		}
		ests, err := s.Validate(ctx, p)
		if err != nil {
			return err
		}
		ok := resultKey(res) == want[i] && sameDelta(ests[0].Delta, wantEst[i])
		if !ok {
			mu.Lock()
			mismatches++
			mu.Unlock()
		}
		return nil
	})
	if mismatches > 0 {
		t.Fatalf("%d concurrent results diverged from the sequential baseline", mismatches)
	}
	if hits, misses := s.CacheStats(); hits == 0 {
		t.Errorf("hammer never hit the shared cache (hits=%d misses=%d)", hits, misses)
	}
}

func sameDelta(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// TestSessionEpochInvalidation: after BuildSamples replaces the sample
// set, a session's warmed shared cache must never serve stale-epoch
// counts — concurrent post-rebuild results must equal those of a fresh
// session with a cold cache on the new samples.
func TestSessionEpochInvalidation(t *testing.T) {
	cat, qs := ottSession(t)
	ctx := context.Background()

	s, err := reopt.Open(cat, reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the shared cache on the current samples, concurrently.
	hammer(t, qs, 2, func(_ int, q *reopt.Query) error {
		_, err := s.Reoptimize(ctx, q)
		return err
	})

	// Rebuild samples (different seed => different counts), strictly
	// between Session calls, as the concurrency contract requires.
	cat.BuildSamples(999)

	// Fresh-session, cold-cache reference on the NEW samples.
	fresh, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][4]string, len(qs))
	for i, q := range qs {
		res, err := fresh.Reoptimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultKey(res)
	}

	// The warmed session must produce exactly the fresh results: any
	// stale-epoch count served from the old samples would shift Γ.
	var mu sync.Mutex
	stale := 0
	hammer(t, qs, 2, func(i int, q *reopt.Query) error {
		res, err := s.Reoptimize(ctx, q)
		if err != nil {
			return err
		}
		if resultKey(res) != want[i] {
			mu.Lock()
			stale++
			mu.Unlock()
		}
		return nil
	})
	if stale > 0 {
		t.Fatalf("%d results diverged after sample rebuild: stale-epoch counts served", stale)
	}
}

// TestSessionSchedulerMixedHammer: one session, opened with the
// deprecated WithWorkloadScheduler, serving ReoptimizeWorkload batches
// and single-query Reoptimize calls at the same time through one shared
// cache (the race detector's gate for that sharing). Every result, from
// either entry point, must equal the sequential baseline, and the
// scheduler stats stay zero.
func TestSessionSchedulerMixedHammer(t *testing.T) {
	cat, qs := ottSession(t)
	ctx := context.Background()

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

	s, err := reopt.Open(cat, reopt.WithWorkloadScheduler(0), reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	mismatches := 0
	record := func(i int, res *reopt.ReoptResult) {
		if resultKey(res) != want[i] {
			mu.Lock()
			mismatches++
			mu.Unlock()
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	// Workload batches...
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				results, err := s.ReoptimizeWorkload(ctx, qs, 3)
				if err != nil {
					fail(err)
					return
				}
				for i, res := range results {
					record(i, res)
				}
			}
		}()
	}
	// ...racing single-query traffic on the same session.
	singles := runtime.NumCPU()
	if singles < 2 {
		singles = 2
	}
	for w := 0; w < singles; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				i := (w + pass) % len(qs)
				res, err := s.Reoptimize(ctx, qs[i])
				if err != nil {
					fail(err)
					return
				}
				record(i, res)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if mismatches > 0 {
		t.Fatalf("%d mixed results diverged from the sequential baseline", mismatches)
	}
	wantNoSchedulerStats(t, s)
}

// TestSessionWorkloadConcurrentCancel: cancelling a workload mid-flight
// returns ctx.Err() promptly and leaves the session (and its cache)
// serving correct results afterwards.
func TestSessionWorkloadConcurrentCancel(t *testing.T) {
	cat, qs := ottSession(t)
	s, err := reopt.Open(cat, reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ReoptimizeWorkload(ctx, qs, 4); err == nil {
		t.Fatal("cancelled workload must not succeed")
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
			t.Errorf("query %d: post-cancel session result diverged", i)
		}
	}
}
