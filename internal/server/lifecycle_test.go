package server_test

// Lifecycle tests: the drain sequence's observable ordering (readiness
// flips before sessions close; queued requests get 503; in-flight
// requests are answered), and client-disconnect propagation (an
// abandoned request releases its admission slot — the census returns
// to zero without waiting for the work's natural end).

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"reopt/internal/faultinject"
	"reopt/internal/server"
	"reopt/reoptclient"
)

// TestDrainOrdering pins one request mid-validation, starts Drain, and
// checks the contract in order: (1) readiness flips to 503 while the
// pinned request is still running; (2) a new request is rejected 503
// KindDraining at the door; (3) the pinned request completes with its
// normal 200 answer; (4) Drain returns nil and no goroutines leak.
func TestDrainOrdering(t *testing.T) {
	base := runtime.NumGoroutine()
	cat := ottCatalog(t)
	sql, _ := ottQueries(t, cat, 3, 2, 7)
	q := boundedQuota()
	srv, ts := newTestServer(t, cat, server.Config{
		DrainGrace: reoptclient.Duration(30 * time.Second),
		Default:    &q,
	})
	c := reoptclient.New(ts.URL, reoptclient.WithRetries(0))
	ctx := context.Background()

	// Reference answer before any chaos, for the byte-identity check.
	want, err := c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql[0]})
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	gate := make(chan struct{})
	var fi faultinject.Set
	blockAtEstimate(&fi, started, gate)
	restore := fi.Activate()
	defer restore()

	type answer struct {
		res *reoptclient.ReoptimizeResponse
		err error
	}
	pinned := make(chan answer, 1)
	go func() {
		res, err := c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql[0]})
		pinned <- answer{res, err}
	}()
	<-started

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(context.Background()) }()

	// (1) Readiness must flip promptly, while the pinned request still
	// holds its slot (the gate is closed, so it cannot have finished).
	readyBy := time.Now().Add(5 * time.Second)
	for srv.Ready() {
		if time.Now().After(readyBy) {
			t.Fatal("readiness never flipped during drain")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("readyz 503 without Retry-After")
	}
	select {
	case a := <-pinned:
		t.Fatalf("pinned request finished before the gate opened: %+v", a)
	default:
	}

	// (2) New traffic is rejected at the door with the draining kind.
	_, err = c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql[1]})
	if !reoptclient.IsDraining(err) {
		t.Fatalf("request during drain: %v, want 503 draining", err)
	}

	// (3) Open the gate: the pinned request must complete with the same
	// answer it would have had without a drain racing it.
	close(gate)
	a := <-pinned
	if a.err != nil {
		t.Fatalf("in-flight request during drain: %v, want 200", a.err)
	}
	if respKey(a.res) != respKey(want) {
		t.Errorf("in-flight answer changed under drain:\n got %s\nwant %s", respKey(a.res), respKey(want))
	}

	// (4) Drain completes cleanly and the process is quiet again.
	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned after in-flight work finished")
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	waitNoGoroutineLeak(t, base)
}

// TestDrainIsIdempotent: calling Drain twice (operator re-signals, or
// the HTTP shutdown races the signal handler) must not panic or hang.
func TestDrainIsIdempotent(t *testing.T) {
	cat := ottCatalog(t)
	q := boundedQuota()
	srv, _ := newTestServer(t, cat, server.Config{Default: &q})
	for i := 0; i < 2; i++ {
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatalf("drain %d: %v", i+1, err)
		}
	}
}

// TestClientDisconnectReleasesPermit abandons a request mid-validation
// by cancelling its HTTP context, then proves the admission slot came
// back: the tenant census returns to zero long before the blocked work
// could have finished on its own, and a fresh request is admitted
// immediately.
func TestClientDisconnectReleasesPermit(t *testing.T) {
	base := runtime.NumGoroutine()
	cat := ottCatalog(t)
	sql, _ := ottQueries(t, cat, 3, 2, 7)
	q := boundedQuota()
	q.MaxInFlight = 1
	q.QueueDepth = 0
	srv, err := server.New(cat, server.Config{Default: &q})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := reoptclient.New(ts.URL, reoptclient.WithRetries(0))

	started := make(chan struct{})
	gate := make(chan struct{})
	reqCtx, cancel := context.WithCancel(context.Background())
	// A lone request validates on its own goroutine, so the pinned call
	// is the one parked at the seam: the block gives way once the client
	// has hung up and returned, as a validation does at its next
	// cancellation check. (Giving way at the cancel itself races the
	// response against the client's own cancellation.)
	clientDone := make(chan struct{})
	var fi faultinject.Set
	fi.On(faultinject.Rule{Point: faultinject.Estimate, Count: 1, Do: func(faultinject.Point, string) {
		close(started)
		select {
		case <-gate:
		case <-clientDone:
		}
	}})
	restore := fi.Activate()
	defer restore()

	abandoned := make(chan error, 1)
	go func() {
		defer close(clientDone)
		_, err := c.Reoptimize(reqCtx, &reoptclient.ReoptimizeRequest{SQL: sql[0]})
		abandoned <- err
	}()
	<-started
	if got := srv.TenantInFlight(server.DefaultTenant); got != 1 {
		t.Fatalf("census with one pinned request: %d, want 1", got)
	}

	// Hang up. The server sees r.Context() cancel, the session call
	// unwinds with context.Canceled, and the admission permit frees.
	cancel()
	if err := <-abandoned; err == nil {
		t.Fatal("abandoned request returned success")
	}
	censusBy := time.Now().Add(10 * time.Second)
	for srv.TenantInFlight(server.DefaultTenant) != 0 {
		if time.Now().After(censusBy) {
			t.Fatalf("census stuck at %d after client disconnect; permit never released",
				srv.TenantInFlight(server.DefaultTenant))
		}
		time.Sleep(time.Millisecond)
	}

	// Disable injection before the clean follow-up request.
	close(gate)
	restore()

	// The freed slot must admit new work: with MaxInFlight=1 and no
	// queue, this request sheds unless the abandoned permit was
	// returned.
	if _, err := c.Reoptimize(context.Background(), &reoptclient.ReoptimizeRequest{SQL: sql[1]}); err != nil {
		t.Fatalf("request after disconnect freed the slot: %v", err)
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	waitNoGoroutineLeak(t, base)
}
