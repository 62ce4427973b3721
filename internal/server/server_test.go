package server_test

// Endpoint and status-mapping tests: the wire contract of DESIGN.md §7
// — responses match the library's results byte for byte, budgets
// degrade to 200s, and each error sentinel lands on its documented
// status code with a structured body.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"reopt"
	"reopt/internal/faultinject"
	"reopt/internal/server"
	"reopt/reoptclient"
)

// newTestServer mounts a Server on an httptest listener.
func newTestServer(t testing.TB, cat *reopt.Catalog, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestReoptimizeMatchesLibrary: a /v1/reoptimize answer must be
// byte-identical to calling Session.Reoptimize directly over the same
// catalog — the HTTP layer adds transport, not semantics.
func TestReoptimizeMatchesLibrary(t *testing.T) {
	cat := ottCatalog(t)
	sql, qs := ottQueries(t, cat, 3, 2, 7)
	ctx := context.Background()

	direct, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Default: &server.Quota{}}
	_, ts := newTestServer(t, cat, cfg)
	c := reoptclient.New(ts.URL, reoptclient.WithRetries(0))

	for i := range sql {
		want, err := direct.Reoptimize(ctx, qs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql[i]})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got.Fingerprint != want.Final.Fingerprint() || got.Explain != want.Final.Explain() {
			t.Errorf("query %d: HTTP plan diverged from library plan:\n got %s\nwant %s",
				i, got.Fingerprint, want.Final.Fingerprint())
		}
		if got.NumPlans != want.NumPlans || got.Rounds != len(want.Rounds) || got.Converged != want.Converged {
			t.Errorf("query %d: trace diverged: got %d/%d/%v want %d/%d/%v", i,
				got.NumPlans, got.Rounds, got.Converged,
				want.NumPlans, len(want.Rounds), want.Converged)
		}
	}

	// Multi-seed routes through ReoptimizeMultiSeed.
	ms, err := c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql[0], Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	msWant, err := direct.ReoptimizeMultiSeed(ctx, qs[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Fingerprint != msWant.Final.Fingerprint() {
		t.Errorf("multi-seed diverged: got %s want %s", ms.Fingerprint, msWant.Final.Fingerprint())
	}
}

// TestValidateAndWorkloadEndpoints: /v1/validate returns positional
// Δ maps matching Session.Validate; /v1/workload answers every query.
func TestValidateAndWorkloadEndpoints(t *testing.T) {
	cat := ottCatalog(t)
	sql, qs := ottQueries(t, cat, 3, 3, 7)
	ctx := context.Background()
	_, ts := newTestServer(t, cat, server.Config{Default: &server.Quota{}})
	c := reoptclient.New(ts.URL, reoptclient.WithRetries(0))

	direct, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*reopt.Plan, len(qs))
	for i, q := range qs {
		if plans[i], err = direct.Optimize(q); err != nil {
			t.Fatal(err)
		}
	}
	want, err := direct.Validate(ctx, plans...)
	if err != nil {
		t.Fatal(err)
	}

	vres, err := c.Validate(ctx, &reoptclient.ValidateRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	if len(vres.Estimates) != len(sql) {
		t.Fatalf("validate: %d estimates for %d queries", len(vres.Estimates), len(sql))
	}
	for i, est := range vres.Estimates {
		if len(est.Delta) == 0 {
			t.Errorf("estimate %d: empty delta", i)
		}
		// Both maps carry exactly the in-process sets, under their
		// canonical keys, bit for bit.
		if len(est.Delta) != len(want[i].Sets) || len(est.SampleRows) != len(want[i].Sets) {
			t.Errorf("estimate %d: %d delta / %d sample_rows keys for %d sets",
				i, len(est.Delta), len(est.SampleRows), len(want[i].Sets))
		}
		for _, set := range want[i].Sets {
			got, ok := est.Delta[set.Key]
			if !ok || math.Float64bits(got) != math.Float64bits(set.Rows) {
				t.Errorf("estimate %d key %q: delta %v (present %v), want %v", i, set.Key, got, ok, set.Rows)
			}
			if rows, ok := est.SampleRows[set.Key]; !ok || rows != set.SampleRows {
				t.Errorf("estimate %d key %q: sample_rows %d (present %v), want %d", i, set.Key, rows, ok, set.SampleRows)
			}
		}
	}

	wres, err := c.Workload(ctx, &reoptclient.WorkloadRequest{SQL: sql, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(wres.Items) != len(sql) {
		t.Fatalf("workload: %d items for %d queries", len(wres.Items), len(sql))
	}
	for i, item := range wres.Items {
		if item.Error != nil {
			t.Errorf("workload item %d: unexpected error %+v", i, item.Error)
		}
		if item.Result == nil || item.Result.Fingerprint == "" {
			t.Errorf("workload item %d: missing result", i)
		}
	}
}

// TestStatusMapping: each failure mode lands on its documented status
// code with a machine-readable kind.
func TestStatusMapping(t *testing.T) {
	cat := ottCatalog(t)
	sql, _ := ottQueries(t, cat, 3, 1, 7)
	ctx := context.Background()
	tight := server.Quota{MemoryBudget: 1}
	cfg := server.Config{
		Default: &server.Quota{},
		Tenants: map[string]server.Quota{"tight": tight},
	}
	_, ts := newTestServer(t, cat, cfg)

	post := func(path, tenant, body string) (int, reoptclient.ErrorBody, http.Header) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("X-Reopt-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var eb reoptclient.ErrorBody
		json.Unmarshal(raw, &eb)
		return resp.StatusCode, eb, resp.Header
	}

	// Bad JSON and bad SQL: 400 bad_request.
	if code, eb, _ := post("/v1/reoptimize", "", "{nope"); code != 400 || eb.Kind != reoptclient.KindBadRequest {
		t.Errorf("bad json: %d %q, want 400 bad_request", code, eb.Kind)
	}
	if code, eb, _ := post("/v1/reoptimize", "", `{"sql":"SELECT FROM nothing"}`); code != 400 || eb.Kind != reoptclient.KindBadRequest {
		t.Errorf("bad sql: %d %q, want 400 bad_request", code, eb.Kind)
	}
	// Unknown tenant: 404 unknown_tenant, and no session ever existed
	// for it.
	if code, eb, _ := post("/v1/reoptimize", "nobody", `{"sql":"SELECT COUNT(*) FROM r1"}`); code != 404 || eb.Kind != reoptclient.KindUnknownTenant {
		t.Errorf("unknown tenant: %d %q, want 404 unknown_tenant", code, eb.Kind)
	}
	// Method: GET on a POST endpoint.
	resp, err := http.Get(ts.URL + "/v1/reoptimize")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: %d, want 405", resp.StatusCode)
	}

	// Memory budget: /v1/validate has no best-so-far, so a starvation
	// budget surfaces as 422 memory_budget...
	body, _ := json.Marshal(&reoptclient.ValidateRequest{SQL: sql})
	if code, eb, _ := post("/v1/validate", "tight", string(body)); code != 422 || eb.Kind != reoptclient.KindMemoryBudget {
		t.Errorf("validate under budget 1: %d %q, want 422 memory_budget", code, eb.Kind)
	}
	// ...while /v1/reoptimize degrades to a 200 best-so-far per §5.4.
	c := reoptclient.New(ts.URL, reoptclient.WithTenant("tight"), reoptclient.WithRetries(0))
	res, err := c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql[0]})
	if err != nil {
		t.Fatalf("reoptimize under budget 1: %v, want 200 best-so-far", err)
	}
	if res.Fingerprint == "" || res.NumPlans != 1 {
		t.Errorf("budget-1 degradation: fingerprint=%q numplans=%d, want initial plan kept", res.Fingerprint, res.NumPlans)
	}
}

// TestTimeoutDegradesTo200: a request-level timeout is a §5.4 budget —
// even one that expires immediately yields the best-so-far plan as a
// 200 with Converged=false, never a 5xx.
func TestTimeoutDegradesTo200(t *testing.T) {
	cat := ottCatalog(t)
	sql, _ := ottQueries(t, cat, 4, 1, 9)
	_, ts := newTestServer(t, cat, server.Config{Default: &server.Quota{}})
	c := reoptclient.New(ts.URL, reoptclient.WithRetries(0))

	res, err := c.Reoptimize(context.Background(), &reoptclient.ReoptimizeRequest{
		SQL:     sql[0],
		Timeout: reoptclient.Duration(time.Nanosecond),
	})
	if err != nil {
		t.Fatalf("1ns budget: %v, want 200 best-so-far", err)
	}
	if res.Fingerprint == "" {
		t.Fatal("1ns budget: empty plan")
	}
	if res.Converged {
		t.Error("1ns budget: Converged=true, want false (budget stopped the loop)")
	}
}

// TestSeedsCapped: a multi-seed count above the daemon's cap is refused
// up front with 400 bad_request — it never starts seed generation, which
// no timeout bounds — while a count at the cap is still served.
func TestSeedsCapped(t *testing.T) {
	cat := ottCatalog(t)
	sql, _ := ottQueries(t, cat, 4, 1, 9)
	_, ts := newTestServer(t, cat, server.Config{Default: &server.Quota{}})
	c := reoptclient.New(ts.URL, reoptclient.WithRetries(0))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql[0], Seeds: 1 << 30})
	var ae *reoptclient.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Body.Kind != reoptclient.KindBadRequest {
		t.Fatalf("seeds 1<<30: %v, want 400 bad_request within 2s", err)
	}
	if _, err := c.Reoptimize(context.Background(), &reoptclient.ReoptimizeRequest{SQL: sql[0], Seeds: 16}); err != nil {
		t.Fatalf("seeds 16: %v, want 200", err)
	}
}

// TestOverloadShedsWith429: saturating the tenant's single admission
// slot makes the next request shed with 429, a Retry-After header >= 1s
// derived from the queue depth, and a structured overloaded body;
// serial traffic afterwards is unaffected.
func TestOverloadShedsWith429(t *testing.T) {
	cat := ottCatalog(t)
	sql, _ := ottQueries(t, cat, 3, 2, 7)
	ctx := context.Background()
	cfg := server.Config{Default: &server.Quota{MaxInFlight: 1, QueueDepth: 0}}
	_, ts := newTestServer(t, cat, cfg)
	c := reoptclient.New(ts.URL, reoptclient.WithRetries(0))

	// Warm one request through so the Retry-After EWMA is hot.
	if _, err := c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql[0]}); err != nil {
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
		_, err := c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql[0]})
		pinned <- err
	}()
	<-started

	_, err := c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql[1]})
	if !reoptclient.IsOverloaded(err) {
		t.Fatalf("saturated: err = %v, want 429 overloaded", err)
	}
	var ae *reoptclient.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %T is not *APIError", err)
	}
	if ae.RetryAfter < time.Second {
		t.Errorf("Retry-After = %v, want >= 1s", ae.RetryAfter)
	}
	if ae.Body.Kind != reoptclient.KindOverloaded || ae.Body.RetryAfter < 1 {
		t.Errorf("shed body = %+v, want overloaded with retry_after >= 1", ae.Body)
	}

	close(gate)
	if err := <-pinned; err != nil {
		t.Fatalf("pinned request after shedding around it: %v", err)
	}
	if _, err := c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql[1]}); err != nil {
		t.Fatalf("serial request after overload: %v", err)
	}
}

// TestHealthAndMetrics: healthz is unconditional, metrics exposes the
// request counters and readiness gauge in Prometheus text format.
func TestHealthAndMetrics(t *testing.T) {
	cat := ottCatalog(t)
	sql, _ := ottQueries(t, cat, 3, 1, 7)
	_, ts := newTestServer(t, cat, server.Config{Default: &server.Quota{CacheEntries: -1}})
	c := reoptclient.New(ts.URL, reoptclient.WithRetries(0))
	if _, err := c.Reoptimize(context.Background(), &reoptclient.ReoptimizeRequest{SQL: sql[0]}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("healthz: %d, want 200", code)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Errorf("readyz: %d, want 200", code)
	}
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d, want 200", code)
	}
	for _, want := range []string{
		`reoptd_requests_total{tenant="default",endpoint="/v1/reoptimize",code="200"} 1`,
		`reoptd_in_flight{tenant="default"} 0`,
		"reoptd_ready 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
	// An OTT selection keeps one join-key value per table, so the
	// validation counted more sample rows than it materialized.
	var counted, materialized int64
	for _, line := range strings.Split(body, "\n") {
		fmt.Sscanf(line, `reoptd_validation_rows_counted_total{tenant="default"} %d`, &counted)
		fmt.Sscanf(line, `reoptd_validation_rows_materialized_total{tenant="default"} %d`, &materialized)
	}
	if materialized <= 0 || counted <= materialized {
		t.Errorf("validation counted %d rows in %d materialized; want 0 < materialized < counted", counted, materialized)
	}
	// 1500-row tables sampled at the 600-row floor: the samples are
	// gathered, not shared, and too small for a sorted index.
	b := cat.Bytes()
	if b.Tables <= 0 || b.Samples <= 0 || b.SampleIndex != 0 || b.SampleCopies != 0 {
		t.Errorf("catalog bytes %+v: want tables and samples only", b)
	}
	for _, want := range []string{
		"# TYPE reoptd_catalog_bytes gauge",
		fmt.Sprintf(`reoptd_catalog_bytes{part="tables"} %d`, b.Tables),
		fmt.Sprintf(`reoptd_catalog_bytes{part="samples"} %d`, b.Samples),
		`reoptd_catalog_bytes{part="sample_index"} 0`,
		`reoptd_catalog_bytes{part="sample_copies"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestCatalogBytesFullRatio: full-ratio samples share their tables'
// columns, so the samples part reads 0; a validation answered by the
// sorted sample index builds its permutation and the ordered copy of the
// boundary column, which the sample_index and sample_copies parts count —
// 4 bytes a row for a permutation, 8 for a copied int column.
func TestCatalogBytesFullRatio(t *testing.T) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 5, RowsPerValue: 45, SampleRatio: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b := cat.Bytes(); b.Tables <= 0 || b.Samples != 0 || b.SampleIndex != 0 || b.SampleCopies != 0 {
		t.Fatalf("before any validation: %+v, want tables only", b)
	}
	sql, _ := ottQueries(t, cat, 3, 1, 7)
	_, ts := newTestServer(t, cat, server.Config{Default: &server.Quota{CacheEntries: -1}})
	c := reoptclient.New(ts.URL, reoptclient.WithRetries(0))
	if _, err := c.Reoptimize(context.Background(), &reoptclient.ReoptimizeRequest{SQL: sql[0]}); err != nil {
		t.Fatal(err)
	}
	b := cat.Bytes()
	if b.Samples != 0 || b.SampleIndex <= 0 || b.SampleIndex%4 != 0 || b.SampleCopies <= 0 || b.SampleCopies%8 != 0 {
		t.Fatalf("after a validation: %+v; want no sample bytes, and permutations and int copies built", b)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`reoptd_catalog_bytes{part="samples"} 0`,
		fmt.Sprintf(`reoptd_catalog_bytes{part="sample_index"} %d`, b.SampleIndex),
		fmt.Sprintf(`reoptd_catalog_bytes{part="sample_copies"} %d`, b.SampleCopies),
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %q in:\n%s", want, raw)
		}
	}
}
