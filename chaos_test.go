package reopt_test

// Chaos suite: hammers one shared Session while deterministic faults —
// injected panics, starvation-level memory budgets, induced overload,
// close-under-load — fire inside the validation pipeline, and asserts
// the failure-isolation contract: exactly the affected query fails,
// with the right sentinel; concurrent queries return byte-identical
// results; caches stay unpoisoned; the Session stays usable; and no
// goroutine outlives its call. Run with -race.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"reopt"
	"reopt/internal/faultinject"
)

// waitNoGoroutineLeak polls until the process is back to at most base
// goroutines, dumping all stacks on timeout.
func waitNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, %d at start\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// uniqueSelection finds a query whose selection predicate appears in no
// other query of the workload — a fault-injection tag that provably
// targets one query's validation work and nothing else. Substring
// containment is checked both ways because injection rules match tags
// by substring.
func uniqueSelection(t *testing.T, qs []*reopt.Query) (int, string) {
	t.Helper()
	for qi, q := range qs {
		for _, sel := range q.Selections {
			tag := sel.String()
			unique := true
			for oj, oq := range qs {
				if oj == qi {
					continue
				}
				for _, os := range oq.Selections {
					if strings.Contains(os.String(), tag) {
						unique = false
						break
					}
				}
				if !unique {
					break
				}
			}
			if unique {
				return qi, tag
			}
		}
	}
	t.Fatal("no query has a selection unique to it; workload seeds need adjusting")
	return 0, ""
}

// blockAtEstimate installs a rule that blocks the first validation at
// the estimator seam until gate closes, signalling started when the
// victim call is provably in flight (and holding its admission slot).
func blockAtEstimate(fi *faultinject.Set, started, gate chan struct{}) {
	fi.On(faultinject.Rule{Point: faultinject.Estimate, Count: 1, Do: func(faultinject.Point, string) {
		close(started)
		<-gate
	}})
}

// TestChaosPanicIsolatedInSchedulerWave: a panic injected into a subtree
// unique to one query of a concurrent workload — on a session that still
// sets the deprecated WithWorkloadScheduler — must fail exactly that
// query with ErrValidationPanic, leave every concurrent query's result
// byte-identical to an uninjected run, keep the shared cache clean, and
// leave the Session fully reusable — with no goroutine leaked.
func TestChaosPanicIsolatedInSchedulerWave(t *testing.T) {
	base := runtime.NumGoroutine()
	cat, qs := ottSession(t)
	ctx := context.Background()
	open := func() *reopt.Session {
		s, err := reopt.Open(cat, reopt.WithWorkers(4),
			reopt.WithSharedCache(0), reopt.WithWorkloadScheduler(0))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	baseline := open()
	want, err := baseline.ReoptimizeWorkload(ctx, qs, 3)
	if err != nil {
		t.Fatal(err)
	}

	bad, tag := uniqueSelection(t, qs)
	chaos := open()
	var fi faultinject.Set
	fi.PanicAt(faultinject.SkelNode, tag)
	restore := fi.Activate()
	res, werr := chaos.ReoptimizeWorkload(ctx, qs, 3)
	restore()

	if werr == nil {
		t.Fatal("injected panic produced no workload error")
	}
	if !errors.Is(werr, reopt.ErrValidationPanic) {
		t.Fatalf("workload error %v does not match ErrValidationPanic", werr)
	}
	var wle *reopt.WorkloadError
	if !errors.As(werr, &wle) {
		t.Fatalf("workload error %T is not *WorkloadError", werr)
	}
	for i := range qs {
		if i == bad {
			if res[i] != nil {
				t.Errorf("panicked query %d: got a result, want a nil hole", i)
			}
			if !errors.Is(wle.Errs[i], reopt.ErrValidationPanic) {
				t.Errorf("panicked query %d: cause %v, want ErrValidationPanic", i, wle.Errs[i])
			}
			continue
		}
		if wle.Errs[i] != nil {
			t.Errorf("healthy query %d: spurious cause %v", i, wle.Errs[i])
		}
		if res[i] == nil {
			t.Fatalf("healthy query %d lost next to a panicking peer", i)
		}
		if resultKey(res[i]) != resultKey(want[i]) {
			t.Errorf("query %d diverged next to a panicking peer:\n got %v\nwant %v",
				i, resultKey(res[i]), resultKey(want[i]))
		}
	}

	// With the injection gone, the same Session — same shared cache the
	// failed validation ran through — must answer the whole workload,
	// including the previously failed query, identically.
	again, err := chaos.ReoptimizeWorkload(ctx, qs, 3)
	if err != nil {
		t.Fatalf("session not reusable after contained panic: %v", err)
	}
	for i := range qs {
		if resultKey(again[i]) != resultKey(want[i]) {
			t.Errorf("rerun query %d diverged (cache poisoned?):\n got %v\nwant %v",
				i, resultKey(again[i]), resultKey(want[i]))
		}
	}
	waitNoGoroutineLeak(t, base)
}

// TestChaosMemoryBudgetDegradesBestSoFar: at the Session surface a
// starvation budget must degrade every re-optimization to its
// best-so-far plan with no error, a huge budget must change nothing,
// Validate (no best-so-far) must surface ErrMemoryBudget, and a cache
// charged by breaching runs must serve an unbudgeted session correctly.
func TestChaosMemoryBudgetDegradesBestSoFar(t *testing.T) {
	cat, qs := ottSession(t)
	ctx := context.Background()

	clean, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][4]string, len(qs))
	for i, q := range qs {
		res, err := clean.Reoptimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultKey(res)
	}

	cache := reopt.NewWorkloadCache(0)
	tight, err := reopt.Open(cat, reopt.WithCache(cache), reopt.WithMemoryBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		res, err := tight.Reoptimize(ctx, q)
		if err != nil {
			t.Fatalf("query %d under starvation budget: err = %v, want graceful degradation", i, err)
		}
		if res.Final == nil {
			t.Fatalf("query %d under starvation budget: nil final plan", i)
		}
		if res.NumPlans != 1 {
			t.Errorf("query %d under starvation budget: NumPlans = %d, want 1 (initial plan kept)", i, res.NumPlans)
		}
	}
	p0, err := tight.Optimize(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, verr := tight.Validate(ctx, p0); !errors.Is(verr, reopt.ErrMemoryBudget) {
		t.Fatalf("Validate under starvation budget: err = %v, want ErrMemoryBudget", verr)
	}

	huge, err := reopt.Open(cat, reopt.WithMemoryBudget(1<<50))
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		res, err := huge.Reoptimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(res) != want[i] {
			t.Errorf("query %d: huge budget diverged from unbudgeted run:\n got %v\nwant %v",
				i, resultKey(res), want[i])
		}
	}

	// The cache every breaching validation charged must still be clean:
	// an unbudgeted session adopting it reproduces the baseline exactly.
	after, err := reopt.Open(cat, reopt.WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		res, err := after.Reoptimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(res) != want[i] {
			t.Errorf("query %d over breach-charged cache diverged (cache poisoned?):\n got %v\nwant %v",
				i, resultKey(res), want[i])
		}
	}
}

// TestChaosAdmissionShedding: with WithMaxInFlight(1, 0) and one call
// pinned in flight, every further expensive call — Reoptimize,
// Validate, each workload query — must shed immediately with
// ErrOverloaded; the pinned call must finish normally; and serial
// traffic afterwards must be completely unaffected.
func TestChaosAdmissionShedding(t *testing.T) {
	cat, qs := ottSession(t)
	ctx := context.Background()
	s, err := reopt.Open(cat, reopt.WithMaxInFlight(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][4]string, len(qs))
	for i, q := range qs {
		res, err := s.Reoptimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultKey(res)
	}

	started := make(chan struct{})
	gate := make(chan struct{})
	var fi faultinject.Set
	blockAtEstimate(&fi, started, gate)
	restore := fi.Activate()
	defer restore()

	pinned := make(chan error, 1)
	go func() {
		res, err := s.Reoptimize(ctx, qs[0])
		if err == nil && res.Final == nil {
			err = errors.New("pinned call returned no plan")
		}
		pinned <- err
	}()
	<-started

	if _, err := s.Reoptimize(ctx, qs[1]); !errors.Is(err, reopt.ErrOverloaded) {
		t.Fatalf("Reoptimize while saturated: err = %v, want ErrOverloaded", err)
	}
	p1, err := s.Optimize(qs[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Validate(ctx, p1); !errors.Is(err, reopt.ErrOverloaded) {
		t.Fatalf("Validate while saturated: err = %v, want ErrOverloaded", err)
	}
	res, werr := s.ReoptimizeWorkload(ctx, qs, 2)
	if !errors.Is(werr, reopt.ErrOverloaded) {
		t.Fatalf("workload while saturated: err = %v, want ErrOverloaded", werr)
	}
	var wle *reopt.WorkloadError
	if !errors.As(werr, &wle) {
		t.Fatalf("workload error %T is not *WorkloadError", werr)
	}
	for i := range qs {
		if res[i] != nil || !errors.Is(wle.Errs[i], reopt.ErrOverloaded) {
			t.Fatalf("saturated workload query %d: result %v cause %v, want shed hole", i, res[i], wle.Errs[i])
		}
	}

	close(gate)
	if err := <-pinned; err != nil {
		t.Fatalf("pinned call after shedding around it: %v", err)
	}

	// Serial traffic: one call at a time is never queued or shed.
	for i, q := range qs {
		res, err := s.Reoptimize(ctx, q)
		if err != nil {
			t.Fatalf("serial query %d after overload: %v", i, err)
		}
		if resultKey(res) != want[i] {
			t.Errorf("serial query %d diverged after overload:\n got %v\nwant %v", i, resultKey(res), want[i])
		}
	}
}

// TestChaosCancelWhileQueued: a call cancelled while waiting in the
// admission queue must return ctx.Err() promptly and leak no permit —
// proven by Close draining to zero afterwards instead of hanging.
func TestChaosCancelWhileQueued(t *testing.T) {
	base := runtime.NumGoroutine()
	cat, qs := ottSession(t)
	ctx := context.Background()
	s, err := reopt.Open(cat, reopt.WithMaxInFlight(1, 2))
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	gate := make(chan struct{})
	var fi faultinject.Set
	blockAtEstimate(&fi, started, gate)
	restore := fi.Activate()
	defer restore()

	pinned := make(chan error, 1)
	go func() {
		_, err := s.Reoptimize(ctx, qs[0])
		pinned <- err
	}()
	<-started

	qctx, qcancel := context.WithCancel(ctx)
	queued := make(chan error, 1)
	go func() {
		_, err := s.Reoptimize(qctx, qs[1])
		queued <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call reach the queue
	qcancel()
	select {
	case err := <-queued:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled-while-queued: err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled-while-queued call did not return promptly")
	}

	close(gate)
	if err := <-pinned; err != nil {
		t.Fatal(err)
	}

	// A leaked permit would leave the census non-zero and hang Close.
	closeDone := make(chan struct{})
	go func() {
		s.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung: the cancelled waiter leaked its permit")
	}
	if _, err := s.Reoptimize(ctx, qs[0]); !errors.Is(err, reopt.ErrSessionClosed) {
		t.Fatalf("Reoptimize after Close: err = %v, want ErrSessionClosed", err)
	}
	waitNoGoroutineLeak(t, base)
}

// TestChaosWorkloadOverloadHoles: a workload wider than the admission
// limit sheds some queries — nil holes with ErrOverloaded causes —
// while every admitted query's result stays byte-identical to an
// unconstrained run.
func TestChaosWorkloadOverloadHoles(t *testing.T) {
	cat, qs := ottSession(t)
	ctx := context.Background()

	clean, err := reopt.Open(cat, reopt.WithWorkers(2), reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.ReoptimizeWorkload(ctx, qs, 4)
	if err != nil {
		t.Fatal(err)
	}

	s, err := reopt.Open(cat, reopt.WithWorkers(2), reopt.WithSharedCache(0),
		reopt.WithMaxInFlight(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	var fi faultinject.Set
	// Stretch every validation so the workload's workers provably
	// overlap inside the admission window.
	fi.SleepAt(faultinject.Estimate, "", 30*time.Millisecond)
	restore := fi.Activate()
	res, werr := s.ReoptimizeWorkload(ctx, qs, 4)
	restore()

	if werr == nil {
		t.Fatal("overcommitted workload reported no shedding")
	}
	if !errors.Is(werr, reopt.ErrOverloaded) {
		t.Fatalf("overcommitted workload: err = %v, want ErrOverloaded", werr)
	}
	var wle *reopt.WorkloadError
	if !errors.As(werr, &wle) {
		t.Fatalf("workload error %T is not *WorkloadError", werr)
	}
	holes, answered := 0, 0
	for i := range qs {
		if res[i] == nil {
			holes++
			if !errors.Is(wle.Errs[i], reopt.ErrOverloaded) {
				t.Errorf("shed query %d: cause %v, want ErrOverloaded", i, wle.Errs[i])
			}
			continue
		}
		answered++
		if wle.Errs[i] != nil {
			t.Errorf("answered query %d: spurious cause %v", i, wle.Errs[i])
		}
		if resultKey(res[i]) != resultKey(want[i]) {
			t.Errorf("answered query %d diverged under shedding:\n got %v\nwant %v",
				i, resultKey(res[i]), resultKey(want[i]))
		}
	}
	if holes == 0 || answered == 0 {
		t.Fatalf("expected a mix of shed and answered queries, got %d shed / %d answered", holes, answered)
	}
}

// TestChaosSessionClose: Close rejects new calls and queued waiters
// with ErrSessionClosed, waits for the in-flight call — which completes
// normally — and is idempotent; every entry point rejects afterwards.
func TestChaosSessionClose(t *testing.T) {
	base := runtime.NumGoroutine()
	cat, qs := ottSession(t)
	ctx := context.Background()
	s, err := reopt.Open(cat, reopt.WithMaxInFlight(1, 1))
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	gate := make(chan struct{})
	var fi faultinject.Set
	blockAtEstimate(&fi, started, gate)
	restore := fi.Activate()
	defer restore()

	type outcome struct {
		res *reopt.ReoptResult
		err error
	}
	pinned := make(chan outcome, 1)
	go func() {
		res, err := s.Reoptimize(ctx, qs[0])
		pinned <- outcome{res, err}
	}()
	<-started

	queued := make(chan error, 1)
	go func() {
		_, err := s.Reoptimize(ctx, qs[1])
		queued <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call reach the queue

	closeDone := make(chan struct{})
	go func() {
		s.Close()
		close(closeDone)
	}()

	// New calls reject once the close lands (they may see ErrOverloaded
	// in the race window before it does).
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := s.Reoptimize(ctx, qs[2])
		if errors.Is(err, reopt.ErrSessionClosed) {
			break
		}
		if !errors.Is(err, reopt.ErrOverloaded) {
			t.Fatalf("Reoptimize during Close: err = %v, want ErrOverloaded then ErrSessionClosed", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never started rejecting new calls")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-queued:
		if !errors.Is(err, reopt.ErrSessionClosed) {
			t.Fatalf("queued waiter at Close: err = %v, want ErrSessionClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued waiter was not rejected by Close")
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case <-closeDone:
		t.Fatal("Close returned while a call was still in flight")
	default:
	}

	close(gate)
	select {
	case out := <-pinned:
		if out.err != nil || out.res == nil || out.res.Final == nil {
			t.Fatalf("in-flight call at Close must complete normally: res=%v err=%v", out.res, out.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight call never finished")
	}
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight call drained")
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}

	if _, err := s.ReoptimizeMultiSeed(ctx, qs[0], 2); !errors.Is(err, reopt.ErrSessionClosed) {
		t.Errorf("ReoptimizeMultiSeed after Close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := s.Validate(ctx); !errors.Is(err, reopt.ErrSessionClosed) {
		t.Errorf("Validate after Close: err = %v, want ErrSessionClosed", err)
	}
	p, err := s.Optimize(qs[0]) // plain optimization is not session state
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(ctx, p, reopt.ExecOptions{}); !errors.Is(err, reopt.ErrSessionClosed) {
		t.Errorf("Execute after Close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := s.MidQuery(ctx, qs[0]); !errors.Is(err, reopt.ErrSessionClosed) {
		t.Errorf("MidQuery after Close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := s.ReoptimizeWorkload(ctx, qs, 2); !errors.Is(err, reopt.ErrSessionClosed) {
		t.Errorf("ReoptimizeWorkload after Close: err = %v, want ErrSessionClosed", err)
	}
	waitNoGoroutineLeak(t, base)
}

// TestChaosCloseRacesSchedulerWaveMidFlush: Close arriving while two
// admitted calls are stalled mid-validation (at the estimator seam) must
// (1) reject the caller still waiting in the admission queue with
// ErrSessionClosed, (2) let both stalled calls complete with results
// byte-identical to an undisturbed run, and (3) return only after the
// census drains, leaking no goroutine.
func TestChaosCloseRacesSchedulerWaveMidFlush(t *testing.T) {
	base := runtime.NumGoroutine()
	cat, qs := ottSession(t)
	ctx := context.Background()
	open := func() *reopt.Session {
		s, err := reopt.Open(cat, reopt.WithWorkers(2),
			reopt.WithWorkloadScheduler(0), reopt.WithMaxInFlight(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Undisturbed reference run for the byte-identity check.
	baseline := open()
	var want [2][4]string
	for i := range want {
		res, err := baseline.Reoptimize(ctx, qs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultKey(res)
	}
	baseline.Close()

	s := open()
	started := make(chan struct{})
	gate := make(chan struct{})
	var fi faultinject.Set
	// Stall every validation at its head: both calls hold their
	// admission slots until the gate opens.
	var once sync.Once
	fi.On(faultinject.Rule{Point: faultinject.Estimate, Do: func(faultinject.Point, string) {
		once.Do(func() { close(started) })
		<-gate
	}})
	restore := fi.Activate()
	defer restore()

	type outcome struct {
		res *reopt.ReoptResult
		err error
	}
	inflight := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			res, err := s.Reoptimize(ctx, qs[i])
			inflight <- outcome{res, err}
		}(i)
	}
	<-started // a validation is stalled
	// Wait until BOTH calls hold their admission slots (admitted calls
	// cannot finish while their validations are stalled); only then is a
	// third caller guaranteed to queue rather than steal a free slot.
	admitBy := time.Now().Add(5 * time.Second)
	for s.InFlight() < 2 {
		if time.Now().After(admitBy) {
			t.Fatalf("census stuck at %d with validations stalled, want 2", s.InFlight())
		}
		time.Sleep(time.Millisecond)
	}

	queued := make(chan error, 1)
	go func() {
		_, err := s.Reoptimize(ctx, qs[2])
		queued <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the third call reach the admission queue

	closeDone := make(chan struct{})
	go func() {
		s.Close()
		close(closeDone)
	}()

	// (1) The queued caller is rejected without ever starting work.
	select {
	case err := <-queued:
		if !errors.Is(err, reopt.ErrSessionClosed) {
			t.Fatalf("queued caller at Close: err = %v, want ErrSessionClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued caller was not rejected while validations were stalled")
	}
	// Close must still be waiting on the stalled calls.
	select {
	case <-closeDone:
		t.Fatal("Close returned while validations were stalled")
	default:
	}

	// (2) Release the stall: both in-flight calls finish byte-identical.
	close(gate)
	for i := 0; i < 2; i++ {
		select {
		case out := <-inflight:
			if out.err != nil {
				t.Fatalf("in-flight call under Close: %v", out.err)
			}
			k := resultKey(out.res)
			if k != want[0] && k != want[1] {
				t.Errorf("in-flight result diverged under a racing Close:\n got %v\nwant one of %v / %v",
					k, want[0], want[1])
			}
		case <-time.After(10 * time.Second):
			t.Fatal("in-flight call never finished after the stall was released")
		}
	}

	// (3) Close completes once the census drains.
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the stalled calls drained")
	}
	waitNoGoroutineLeak(t, base)
}
