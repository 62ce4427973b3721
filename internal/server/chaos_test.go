package server_test

// Chaos tests for the daemon's tenant-isolation and crash-recovery
// contracts. Fault rule sets are process-global, so none of these run
// in parallel. All are named TestChaos* so the Makefile chaos target's
// -run regex picks them up.

import (
	"context"
	"errors"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"reopt"
	"reopt/internal/faultinject"
	"reopt/internal/server"
	"reopt/reoptclient"
)

// isolatedTag finds a selection predicate of some alpha query that
// appears in no other query — neither alpha's others nor any of beta's
// — an injection tag that provably detonates one request of one tenant.
func isolatedTag(t *testing.T, alpha, beta []*reopt.Query) (int, string) {
	t.Helper()
	for qi, q := range alpha {
		for _, sel := range q.Selections {
			tag := sel.String()
			unique := true
			for oj, oq := range alpha {
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
			for _, oq := range beta {
				if !unique {
					break
				}
				for _, os := range oq.Selections {
					if strings.Contains(os.String(), tag) {
						unique = false
						break
					}
				}
			}
			if unique {
				return qi, tag
			}
		}
	}
	t.Fatal("no alpha selection unique across both tenants; workload seeds need adjusting")
	return 0, ""
}

// twoTenantConfig is the isolation battleground: two identically
// bounded tenants over one catalog.
func twoTenantConfig() server.Config {
	return server.Config{
		DrainGrace: reoptclient.Duration(30 * time.Second),
		Tenants: map[string]server.Quota{
			"alpha": boundedQuota(),
			"beta":  boundedQuota(),
		},
	}
}

// TestChaosCrossTenantIsolation: faults scoped to tenant alpha — a
// validation panic in one of its queries, plus sleeps and alloc spikes
// at its handler boundary — must leave tenant beta's concurrent
// responses byte-identical to a fault-free run. Alpha's poisoned query
// answers 500 validation_panic; its other queries are unharmed; and
// once the faults clear, the same daemon answers the poisoned query
// correctly (no cache poisoning, session fully reusable).
func TestChaosCrossTenantIsolation(t *testing.T) {
	base := runtime.NumGoroutine()
	cat := ottCatalog(t)
	// Alpha runs 4-table queries, beta 3-table ones: the shape skew is
	// what guarantees alpha owns a selection no beta query contains.
	alphaSQL, alphaQ := ottQueries(t, cat, 4, 3, 7)
	betaSQL, betaQ := ottQueries(t, cat, 3, 3, 11)
	bad, tag := isolatedTag(t, alphaQ, betaQ)
	ctx := context.Background()

	// Fault-free reference run on a fresh daemon (fresh sessions, cold
	// caches — the same state the chaos daemon starts from).
	_, ts0 := newTestServer(t, cat, twoTenantConfig())
	a0 := reoptclient.New(ts0.URL, reoptclient.WithTenant("alpha"), reoptclient.WithRetries(0))
	b0 := reoptclient.New(ts0.URL, reoptclient.WithTenant("beta"), reoptclient.WithRetries(0))
	wantAlpha := make([]string, len(alphaSQL))
	wantBeta := make([]string, len(betaSQL))
	for i, sql := range alphaSQL {
		res, err := a0.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
		wantAlpha[i] = respKey(res)
	}
	for i, sql := range betaSQL {
		res, err := b0.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
		wantBeta[i] = respKey(res)
	}

	// The chaos daemon: detonate alpha's unique scan subtree, and lean
	// on alpha's handler boundary with latency and alloc-spike noise.
	// Nothing references beta.
	_, ts := newTestServer(t, cat, twoTenantConfig())
	ca := reoptclient.New(ts.URL, reoptclient.WithTenant("alpha"), reoptclient.WithRetries(0))
	cb := reoptclient.New(ts.URL, reoptclient.WithTenant("beta"), reoptclient.WithRetries(0))

	var fi faultinject.Set
	fi.PanicAt(faultinject.SkelNode, tag)
	fi.SleepAt(faultinject.Handler, "tenant=alpha", 2*time.Millisecond)
	fi.AllocAt(faultinject.Handler, "tenant=alpha", 1<<20)
	restore := fi.Activate()

	type outcome struct {
		key string
		err error
	}
	alphaOut := make([]outcome, len(alphaSQL))
	betaOut := make([]outcome, len(betaSQL))
	var wg sync.WaitGroup
	for i, sql := range alphaSQL {
		wg.Add(1)
		go func(i int, sql string) {
			defer wg.Done()
			res, err := ca.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql})
			if err == nil {
				alphaOut[i] = outcome{key: respKey(res)}
			} else {
				alphaOut[i] = outcome{err: err}
			}
		}(i, sql)
	}
	for i, sql := range betaSQL {
		wg.Add(1)
		go func(i int, sql string) {
			defer wg.Done()
			res, err := cb.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql})
			if err == nil {
				betaOut[i] = outcome{key: respKey(res)}
			} else {
				betaOut[i] = outcome{err: err}
			}
		}(i, sql)
	}
	wg.Wait()
	restore()

	// Beta never noticed: every response present and byte-identical.
	for i := range betaSQL {
		if betaOut[i].err != nil {
			t.Errorf("beta query %d failed next to alpha's faults: %v", i, betaOut[i].err)
			continue
		}
		if betaOut[i].key != wantBeta[i] {
			t.Errorf("beta query %d diverged next to alpha's faults:\n got %s\nwant %s",
				i, betaOut[i].key, wantBeta[i])
		}
	}
	// Alpha: exactly the poisoned query answers 500 validation_panic.
	for i := range alphaSQL {
		if i == bad {
			var ae *reoptclient.APIError
			if !errors.As(alphaOut[i].err, &ae) {
				t.Fatalf("poisoned alpha query %d: err=%v key=%q, want 500 validation_panic",
					i, alphaOut[i].err, alphaOut[i].key)
			}
			if ae.Status != http.StatusInternalServerError || ae.Body.Kind != reoptclient.KindValidationPanic {
				t.Errorf("poisoned alpha query %d: %d %q, want 500 validation_panic", i, ae.Status, ae.Body.Kind)
			}
			continue
		}
		if alphaOut[i].err != nil {
			t.Errorf("healthy alpha query %d failed: %v", i, alphaOut[i].err)
			continue
		}
		if alphaOut[i].key != wantAlpha[i] {
			t.Errorf("healthy alpha query %d diverged:\n got %s\nwant %s", i, alphaOut[i].key, wantAlpha[i])
		}
	}

	// Faults gone: the same daemon — same sessions, same caches the
	// failed validation ran through — answers the poisoned query correctly.
	res, err := ca.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: alphaSQL[bad]})
	if err != nil {
		t.Fatalf("daemon not reusable after contained panic: %v", err)
	}
	if respKey(res) != wantAlpha[bad] {
		t.Errorf("post-chaos rerun diverged (cache poisoned?):\n got %s\nwant %s", respKey(res), wantAlpha[bad])
	}

	ts0.Close()
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	waitNoGoroutineLeak(t, base)
}

// TestChaosHandlerPanicContained: a panic at the handler boundary —
// before any session work — becomes a structured 500 with kind
// "panic", and the daemon keeps serving both tenants afterwards.
func TestChaosHandlerPanicContained(t *testing.T) {
	base := runtime.NumGoroutine()
	cat := ottCatalog(t)
	alphaSQL, _ := ottQueries(t, cat, 3, 1, 7)
	betaSQL, _ := ottQueries(t, cat, 3, 1, 11)
	ctx := context.Background()
	_, ts := newTestServer(t, cat, twoTenantConfig())
	ca := reoptclient.New(ts.URL, reoptclient.WithTenant("alpha"), reoptclient.WithRetries(0))
	cb := reoptclient.New(ts.URL, reoptclient.WithTenant("beta"), reoptclient.WithRetries(0))

	var fi faultinject.Set
	fi.PanicAt(faultinject.Handler, "tenant=alpha")
	restore := fi.Activate()
	defer restore()

	_, err := ca.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: alphaSQL[0]})
	var ae *reoptclient.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("handler panic surfaced as %v, want *APIError", err)
	}
	if ae.Status != http.StatusInternalServerError || ae.Body.Kind != reoptclient.KindPanic {
		t.Fatalf("handler panic: %d %q, want 500 panic", ae.Status, ae.Body.Kind)
	}

	// The daemon is still up: beta serves, and alpha serves again now
	// that the one-shot rule is spent.
	if _, err := cb.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: betaSQL[0]}); err != nil {
		t.Fatalf("beta after alpha's handler panic: %v", err)
	}
	if _, err := ca.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: alphaSQL[0]}); err != nil {
		t.Fatalf("alpha after its contained handler panic: %v", err)
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	waitNoGoroutineLeak(t, base)
}

// TestChaosKillAndRestart: a full kill of the daemon mid-workload —
// abrupt Close, in-flight connections dropped — followed by a restart
// on the same address must be invisible to a retrying client: every
// request of the workload completes with the answer the original
// daemon gave. This is the reoptclient retry contract end to end: the
// endpoints are pure, so transport failures are safely re-issued.
func TestChaosKillAndRestart(t *testing.T) {
	base := runtime.NumGoroutine()
	cat := ottCatalog(t)
	sql, _ := ottQueries(t, cat, 3, 4, 7)
	q := boundedQuota()
	cfg := server.Config{DrainGrace: reoptclient.Duration(30 * time.Second), Default: &q}
	ctx := context.Background()

	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr().String()
	srv1, err := server.New(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	serve1 := make(chan error, 1)
	go func() { serve1 <- srv1.Serve(l1) }()

	hc := &http.Client{}
	c := reoptclient.New("http://"+addr,
		reoptclient.WithHTTPClient(hc),
		reoptclient.WithRetries(10),
		reoptclient.WithBackoff(10*time.Millisecond, 250*time.Millisecond))

	// Fault-free pass records the expected answers (and proves srv1 up).
	want := make([]string, len(sql))
	for i := range sql {
		res, err := c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql[i]})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = respKey(res)
	}

	// The workload, mid-flight through the crash: the first request
	// gates the kill, the rest race it and recover through retries.
	firstDone := make(chan struct{})
	var once sync.Once
	type outcome struct {
		key string
		err error
	}
	out := make([]outcome, len(sql))
	var wg sync.WaitGroup
	for i := range sql {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql[i]})
			once.Do(func() { close(firstDone) })
			if err == nil {
				out[i] = outcome{key: respKey(res)}
			} else {
				out[i] = outcome{err: err}
			}
		}(i)
	}

	// Kill: abrupt, mid-workload; in-flight connections are dropped.
	<-firstDone
	srv1.Close()
	if err := <-serve1; err != nil && !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("srv1.Serve: %v", err)
	}

	// Restart on the same address after a beat — long enough that
	// retrying requests see at least one connection refusal.
	time.Sleep(50 * time.Millisecond)
	srv2, err := server.New(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var l2 net.Listener
	rebindBy := time.Now().Add(5 * time.Second)
	for {
		if l2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if time.Now().After(rebindBy) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	serve2 := make(chan error, 1)
	go func() { serve2 <- srv2.Serve(l2) }()

	wg.Wait()
	for i := range sql {
		if out[i].err != nil {
			t.Errorf("query %d did not survive the restart: %v", i, out[i].err)
			continue
		}
		if out[i].key != want[i] {
			t.Errorf("query %d diverged across the restart:\n got %s\nwant %s", i, out[i].key, want[i])
		}
	}

	// The restarted daemon drains cleanly and nothing leaks.
	if err := srv2.Drain(ctx); err != nil {
		t.Fatalf("srv2.Drain: %v", err)
	}
	if err := <-serve2; err != nil && !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("srv2.Serve: %v", err)
	}
	hc.CloseIdleConnections()
	waitNoGoroutineLeak(t, base)
}
