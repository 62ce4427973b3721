// Package server is the reoptd daemon's HTTP front end: per-tenant
// reopt.Sessions behind /v1/reoptimize, /v1/validate and /v1/workload,
// where the headline contract is the failure behavior, not the routing
// (DESIGN.md §7):
//
//   - Tenant isolation. Each tenant gets its own Session configured
//     from its Quota — admission gate, memory budget, cache — so
//     one tenant's overload, panic, or runaway
//     validation can neither starve nor corrupt another's. Sessions
//     are fixed at startup; unknown tenants get 404, never a session.
//
//   - Deadlines and cancellation. A request's timeout becomes a §5.4
//     budget on the session call (best-so-far 200, Converged=false —
//     never a 5xx), and a closed client connection cancels the
//     request's ctx, which releases its admission slot and aborts
//     validation mid-plan without poisoning any cache.
//
//   - Shedding. reopt.ErrOverloaded surfaces as 429 with a
//     server-computed Retry-After derived from the tenant's observed
//     latency and configured queue depth.
//
//   - Graceful drain. Drain flips readiness first, then closes every
//     tenant session — in-flight requests finish normally, queued ones
//     get 503 — then shuts the HTTP server down within the grace.
//
//   - Panic containment. A panic anywhere inside a handler — including
//     the faultinject.Handler seam used by the chaos suite — converts
//     to a structured 500 while the daemon keeps serving.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"reopt"
	"reopt/internal/faultinject"
	"reopt/reoptclient"
)

// tenant pairs one configured quota with its live Session and the
// request-latency EWMA the Retry-After hint derives from.
type tenant struct {
	name  string
	quota Quota
	sess  *reopt.Session
	// ewmaNanos tracks recent request latency (exponentially weighted,
	// alpha 1/4). It only feeds the Retry-After hint, so the benign
	// load/store race between concurrent updates is acceptable.
	ewmaNanos atomic.Int64
}

// observe folds one finished request's latency into the EWMA.
func (t *tenant) observe(d time.Duration) {
	old := t.ewmaNanos.Load()
	if old == 0 {
		t.ewmaNanos.Store(int64(d))
		return
	}
	t.ewmaNanos.Store(old - old/4 + int64(d)/4)
}

// retryAfter computes the backoff hint for a shed request: the time the
// full admission queue needs to drain at the observed per-request
// latency — (depth+1) requests across maxInFlight lanes — rounded up
// to whole seconds and clamped to [1, 60]. A cold EWMA hints 1s.
func (t *tenant) retryAfter() int {
	ewma := time.Duration(t.ewmaNanos.Load())
	if ewma <= 0 {
		return 1
	}
	lanes := t.quota.MaxInFlight
	if lanes < 1 {
		lanes = 1
	}
	est := ewma * time.Duration(t.quota.QueueDepth+1) / time.Duration(lanes)
	secs := int(math.Ceil(est.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// Server is the daemon: a fixed set of tenant sessions over one
// catalog, an HTTP mux, and the drain state machine.
type Server struct {
	cat      *reopt.Catalog
	cfg      Config
	tenants  map[string]*tenant
	mux      *http.ServeMux
	mtx      metrics
	draining atomic.Bool
	httpSrv  *http.Server
	logf     func(format string, args ...any)
}

// Option configures New.
type Option func(*Server)

// WithLogf routes the server's operational log lines (startup, drain
// stages, contained panics). The default discards them.
func WithLogf(logf func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = logf }
}

// New builds the tenant sessions from cfg and returns a server ready
// to Serve (or to mount via Handler in tests).
func New(cat *reopt.Catalog, cfg Config, opts ...Option) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cat:     cat,
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		logf:    func(string, ...any) {},
	}
	for _, o := range opts {
		o(s)
	}
	add := func(name string, q Quota) error {
		sess, err := reopt.Open(cat, q.sessionOptions()...)
		if err != nil {
			return fmt.Errorf("server: tenant %q: %w", name, err)
		}
		s.tenants[name] = &tenant{name: name, quota: q, sess: sess}
		return nil
	}
	if cfg.Default != nil {
		if err := add(DefaultTenant, *cfg.Default); err != nil {
			return nil, err
		}
	}
	for name, q := range cfg.Tenants {
		if err := add(name, q); err != nil {
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/reoptimize", s.v1(endpointReoptimize, s.handleReoptimize))
	s.mux.HandleFunc("/v1/validate", s.v1(endpointValidate, s.handleValidate))
	s.mux.HandleFunc("/v1/workload", s.v1(endpointWorkload, s.handleWorkload))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	// Built here, not in Serve, so Drain and Close can read the field
	// without racing a Serve running on another goroutine.
	s.httpSrv = &http.Server{Handler: s.mux}
	return s, nil
}

// sessionOptions maps a quota onto Session options.
func (q Quota) sessionOptions() []reopt.SessionOption {
	opts := []reopt.SessionOption{reopt.WithMaxInFlight(q.MaxInFlight, q.QueueDepth)}
	if q.MemoryBudget > 0 {
		opts = append(opts, reopt.WithMemoryBudget(q.MemoryBudget))
	}
	if q.CacheEntries != 0 {
		n := q.CacheEntries
		if n < 0 {
			n = 0 // reopt.WithSharedCache(<=0) selects the default budget
		}
		opts = append(opts, reopt.WithSharedCache(n))
		if q.CacheValues > 0 {
			opts = append(opts, reopt.WithSharedCacheValues(q.CacheValues))
		}
	}
	return opts
}

const (
	endpointReoptimize = "/v1/reoptimize"
	endpointValidate   = "/v1/validate"
	endpointWorkload   = "/v1/workload"
)

// maxBodyBytes bounds request bodies; a workload of a few thousand
// queries fits comfortably.
const maxBodyBytes = 4 << 20

// Handler exposes the mux — the seam tests and httptest servers mount.
func (s *Server) Handler() http.Handler { return s.mux }

// Ready reports whether the server is accepting traffic.
func (s *Server) Ready() bool { return !s.draining.Load() }

// TenantInFlight reports the admitted-call census of one tenant's
// session (0 for unknown tenants) — the number Close drains, used by
// tests to prove abandoned requests release their slots.
func (s *Server) TenantInFlight(name string) int {
	t, ok := s.tenants[name]
	if !ok {
		return 0
	}
	return t.sess.InFlight()
}

// Serve serves on l until Drain (or Close) shuts it down.
func (s *Server) Serve(l net.Listener) error {
	return s.httpSrv.Serve(l)
}

// ListenAndServe listens on cfg.Listen and serves until drained.
func (s *Server) ListenAndServe() error {
	l, err := net.Listen("tcp", s.cfg.Listen)
	if err != nil {
		return err
	}
	s.logf("reoptd: serving %d tenant(s) on %s", len(s.tenants), l.Addr())
	return s.Serve(l)
}

// Drain is the graceful-shutdown sequence, in the order the contract
// demands: (1) readiness flips, so load balancers stop routing here
// and new requests are rejected 503 at the door; (2) every tenant
// session closes — in-flight calls finish normally and their requests
// are answered, queued calls fail with ErrSessionClosed and surface as
// 503; (3) the HTTP server shuts down, waiting for the last handlers
// to write. ctx bounds the whole sequence; on expiry the daemon is not
// cleanly drained and the error says so.
func (s *Server) Drain(ctx context.Context) error {
	first := s.draining.CompareAndSwap(false, true)
	if first {
		s.logf("reoptd: drain: readiness down, closing %d tenant session(s)", len(s.tenants))
	}
	done := make(chan struct{})
	go func() {
		// Contained per the §5 goroutine contract: a panic out of a
		// tenant's Close must degrade this drain, not crash a daemon
		// that is mid-handoff with in-flight requests still writing.
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				s.logf("reoptd: drain: panic closing sessions: %v", r)
			}
		}()
		var wg sync.WaitGroup
		for _, t := range s.tenants {
			wg.Add(1)
			go func(t *tenant) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						s.logf("reoptd: drain: tenant close panicked: %v", r)
					}
				}()
				t.sess.Close()
			}(t)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: drain: sessions still busy: %w", ctx.Err())
	}
	s.logf("reoptd: drain: sessions idle")
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("server: drain: http shutdown: %w", err)
		}
	}
	s.logf("reoptd: drain: complete")
	return nil
}

// Close shuts down abruptly: in-flight connections are dropped. Tests
// use it to simulate a crash; production exits drain via Drain.
func (s *Server) Close() error {
	s.draining.Store(true)
	if s.httpSrv != nil {
		return s.httpSrv.Close()
	}
	return nil
}

// httpError is a handler's structured failure.
type httpError struct {
	status     int
	kind       string
	msg        string
	retryAfter int // seconds; 0 = no header
}

// statusClientGone is the nginx-convention code recorded in metrics
// when the client disconnected before the response; nothing is
// actually received by anyone.
const statusClientGone = 499

// mapErr translates the session error taxonomy to the wire contract.
// Sentinel checks come before the generic context checks because
// ErrMemoryBudget and ErrBudgetExceeded deliberately wrap
// context.DeadlineExceeded (§5.4 unification).
func (s *Server) mapErr(t *tenant, err error) *httpError {
	switch {
	case errors.Is(err, reopt.ErrOverloaded):
		return &httpError{http.StatusTooManyRequests, reoptclient.KindOverloaded,
			"admission queue full; request shed before any work started", t.retryAfter()}
	case errors.Is(err, reopt.ErrSessionClosed):
		return &httpError{http.StatusServiceUnavailable, reoptclient.KindDraining,
			"daemon is draining", s.drainRetryAfter()}
	case errors.Is(err, reopt.ErrValidationPanic):
		return &httpError{http.StatusInternalServerError, reoptclient.KindValidationPanic,
			fmt.Sprintf("validation panic contained; daemon still serving: %v", err), 0}
	case errors.Is(err, reopt.ErrMemoryBudget):
		return &httpError{http.StatusUnprocessableEntity, reoptclient.KindMemoryBudget,
			"validation breached the tenant memory budget", 0}
	case errors.Is(err, reopt.ErrBudgetExceeded):
		return &httpError{http.StatusGatewayTimeout, reoptclient.KindBudgetExhausted,
			"budget spent before any plan was produced", 0}
	case errors.Is(err, context.Canceled):
		return &httpError{statusClientGone, reoptclient.KindInternal, "client went away", 0}
	case errors.Is(err, context.DeadlineExceeded):
		return &httpError{http.StatusGatewayTimeout, reoptclient.KindBudgetExhausted,
			"request deadline exceeded", 0}
	default:
		return &httpError{http.StatusInternalServerError, reoptclient.KindInternal, err.Error(), 0}
	}
}

// drainRetryAfter hints how long a client should wait before retrying
// against a (re)started instance: the configured drain grace, floored
// at 1s.
func (s *Server) drainRetryAfter() int {
	secs := int(math.Ceil(time.Duration(s.cfg.DrainGrace).Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// v1 wraps an endpoint handler with the shared seam: method and tenant
// resolution, the drain gate, body reading, the faultinject handler
// boundary, panic containment, latency observation and metrics. fn
// returns either a response value (marshaled as 200) or an *httpError.
func (s *Server) v1(endpoint string, fn func(ctx context.Context, t *tenant, body []byte) (any, *httpError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tname := r.Header.Get("X-Reopt-Tenant")
		if tname == "" {
			tname = DefaultTenant
		}
		code := 0
		defer func() {
			// The panic barrier: anything a handler (or the injection
			// seam) throws becomes a structured 500 and the daemon
			// keeps serving. Re-panicking would kill the connection,
			// not the process (net/http recovers), but would answer
			// the client with a torn response instead of a body it
			// can classify.
			if rec := recover(); rec != nil {
				s.logf("reoptd: contained handler panic (tenant=%s endpoint=%s): %v\n%s",
					tname, endpoint, rec, debug.Stack())
				code = http.StatusInternalServerError
				s.writeErr(w, &httpError{code, reoptclient.KindPanic,
					fmt.Sprintf("handler panic contained; daemon still serving: %v", rec), 0})
			}
			s.mtx.record(tname, endpoint, code)
		}()

		if r.Method != http.MethodPost {
			code = http.StatusMethodNotAllowed
			s.writeErr(w, &httpError{code, reoptclient.KindBadRequest, "POST only", 0})
			return
		}
		t, ok := s.tenants[tname]
		if !ok {
			code = http.StatusNotFound
			s.writeErr(w, &httpError{code, reoptclient.KindUnknownTenant,
				fmt.Sprintf("tenant %q is not configured", tname), 0})
			return
		}
		if s.draining.Load() {
			code = http.StatusServiceUnavailable
			s.writeErr(w, &httpError{code, reoptclient.KindDraining,
				"daemon is draining", s.drainRetryAfter()})
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			code = http.StatusBadRequest
			s.writeErr(w, &httpError{code, reoptclient.KindBadRequest,
				fmt.Sprintf("read body: %v", err), 0})
			return
		}
		if faultinject.Active() {
			faultinject.Fire(faultinject.Handler, "tenant="+tname+" endpoint="+endpoint)
		}

		// r.Context() cancels when the client disconnects, so an
		// abandoned request releases its admission slot and aborts its
		// validation mid-plan; the handler then unwinds with
		// context.Canceled and nobody reads the 499.
		resp, he := fn(r.Context(), t, body)
		if he != nil {
			code = he.status
			s.writeErr(w, he)
			return
		}
		t.observe(time.Since(start))
		code = http.StatusOK
		s.writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) writeErr(w http.ResponseWriter, he *httpError) {
	if he.retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", he.retryAfter))
	}
	s.writeJSON(w, he.status, &reoptclient.ErrorBody{
		Kind:       he.kind,
		Message:    he.msg,
		RetryAfter: he.retryAfter,
	})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		// Responses are built from plain structs; this is unreachable
		// short of memory corruption, but a torn 200 would be worse.
		status = http.StatusInternalServerError
		buf = []byte(`{"kind":"internal","message":"response encoding failed"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf)
}

// withTimeout applies a request-level timeout (0 = none) to ctx.
// Used ONLY by /v1/validate: validation is all-or-nothing — there is
// no §5.4 best-so-far result to degrade to — so its budget and its
// abort signal are legitimately the same thing. The reoptimize and
// workload handlers must keep mapping timeouts onto reopt.WithTimeout
// instead (the ctxdiscipline analyzer holds that line).
func withTimeout(ctx context.Context, d reoptclient.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		//reoptvet:ignore ctxdiscipline /v1/validate has no best-so-far path to protect; its timeout is all-or-nothing and so may ride the disconnect signal (DESIGN.md §7)
		return context.WithTimeout(ctx, time.Duration(d))
	}
	return context.WithCancel(ctx)
}

// reoptResponse flattens a ReoptResult onto the wire type.
func reoptResponse(res *reopt.ReoptResult) *reoptclient.ReoptimizeResponse {
	return &reoptclient.ReoptimizeResponse{
		Fingerprint: res.Final.Fingerprint(),
		Explain:     res.Final.Explain(),
		Cost:        res.Final.Cost(),
		NumPlans:    res.NumPlans,
		Rounds:      len(res.Rounds),
		Converged:   res.Converged,
		ReoptTime:   reoptclient.Duration(res.ReoptTime),
	}
}

func (s *Server) handleReoptimize(ctx context.Context, t *tenant, body []byte) (any, *httpError) {
	var req reoptclient.ReoptimizeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, &httpError{http.StatusBadRequest, reoptclient.KindBadRequest,
			fmt.Sprintf("decode request: %v", err), 0}
	}
	q, err := t.sess.Parse(req.SQL)
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, reoptclient.KindBadRequest,
			fmt.Sprintf("parse sql: %v", err), 0}
	}
	// The request timeout maps onto the library's §5.4 budget
	// (WithTimeout) rather than a ctx deadline: the budget degrades to a
	// best-so-far 200 with round 1 shielded, while a dead ctx would
	// surface as a 504 before the first plan. ctx stays the client
	// connection's — its only job is disconnect cancellation.
	var opts []reopt.ReoptOption
	if req.Timeout > 0 {
		opts = append(opts, reopt.WithTimeout(time.Duration(req.Timeout)))
	}
	if req.MaxRounds > 0 {
		opts = append(opts, reopt.WithMaxRounds(req.MaxRounds))
	}
	var res *reopt.ReoptResult
	if req.Seeds > 1 {
		res, err = t.sess.ReoptimizeMultiSeed(ctx, q, req.Seeds, opts...)
	} else {
		res, err = t.sess.Reoptimize(ctx, q, opts...)
	}
	if err != nil {
		return nil, s.mapErr(t, err)
	}
	return reoptResponse(res), nil
}

func (s *Server) handleValidate(ctx context.Context, t *tenant, body []byte) (any, *httpError) {
	var req reoptclient.ValidateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, &httpError{http.StatusBadRequest, reoptclient.KindBadRequest,
			fmt.Sprintf("decode request: %v", err), 0}
	}
	if len(req.SQL) == 0 {
		return nil, &httpError{http.StatusBadRequest, reoptclient.KindBadRequest,
			"no queries", 0}
	}
	plans := make([]*reopt.Plan, len(req.SQL))
	for i, src := range req.SQL {
		q, err := t.sess.Parse(src)
		if err != nil {
			return nil, &httpError{http.StatusBadRequest, reoptclient.KindBadRequest,
				fmt.Sprintf("parse sql[%d]: %v", i, err), 0}
		}
		p, err := t.sess.Optimize(q)
		if err != nil {
			return nil, s.mapErr(t, fmt.Errorf("optimize sql[%d]: %w", i, err))
		}
		plans[i] = p
	}
	ctx, cancel := withTimeout(ctx, req.Timeout)
	defer cancel()
	ests, err := t.sess.Validate(ctx, plans...)
	if err != nil {
		return nil, s.mapErr(t, err)
	}
	out := &reoptclient.ValidateResponse{Estimates: make([]reoptclient.PlanEstimate, len(ests))}
	for i, est := range ests {
		out.Estimates[i] = reoptclient.PlanEstimate{
			Delta:      est.Delta,
			SampleRows: est.SampleRows,
			Duration:   reoptclient.Duration(est.Duration),
		}
	}
	return out, nil
}

func (s *Server) handleWorkload(ctx context.Context, t *tenant, body []byte) (any, *httpError) {
	var req reoptclient.WorkloadRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, &httpError{http.StatusBadRequest, reoptclient.KindBadRequest,
			fmt.Sprintf("decode request: %v", err), 0}
	}
	if len(req.SQL) == 0 {
		return nil, &httpError{http.StatusBadRequest, reoptclient.KindBadRequest,
			"no queries", 0}
	}
	queries := make([]*reopt.Query, len(req.SQL))
	for i, src := range req.SQL {
		q, err := t.sess.Parse(src)
		if err != nil {
			return nil, &httpError{http.StatusBadRequest, reoptclient.KindBadRequest,
				fmt.Sprintf("parse sql[%d]: %v", i, err), 0}
		}
		queries[i] = q
	}
	var opts []reopt.ReoptOption
	if req.Timeout > 0 {
		opts = append(opts, reopt.WithTimeout(time.Duration(req.Timeout)))
	}
	if req.MaxRounds > 0 {
		opts = append(opts, reopt.WithMaxRounds(req.MaxRounds))
	}
	results, err := t.sess.ReoptimizeWorkload(ctx, queries, req.Parallelism, opts...)
	var wle *reopt.WorkloadError
	if err != nil && !errors.As(err, &wle) {
		return nil, s.mapErr(t, err)
	}
	out := &reoptclient.WorkloadResponse{Items: make([]reoptclient.WorkloadItem, len(queries))}
	for i := range queries {
		if results != nil && results[i] != nil {
			out.Items[i].Result = reoptResponse(results[i])
			continue
		}
		var cause error
		if wle != nil {
			cause = wle.Errs[i]
		}
		if cause == nil {
			cause = reopt.ErrBudgetExceeded
		}
		he := s.mapErr(t, cause)
		out.Items[i].Error = &reoptclient.ErrorBody{
			Kind:       he.kind,
			Message:    he.msg,
			RetryAfter: he.retryAfter,
		}
	}
	return out, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleReadyz is the load balancer's routing signal: 200 while
// serving, 503 the moment a drain starts — before any session closes,
// so traffic stops arriving while in-flight work finishes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.drainRetryAfter()))
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.mtx.writeTo(w, s)
}
