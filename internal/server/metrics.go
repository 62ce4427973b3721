package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// metrics is the daemon's hand-rolled Prometheus text exposition: a
// request counter keyed by (tenant, endpoint, code) plus live gauges
// read straight off the tenant sessions at scrape time. No external
// client library — the text format is stable and trivially writable.
type metrics struct {
	mu       sync.Mutex
	requests map[reqKey]int64
}

type reqKey struct {
	tenant   string
	endpoint string
	code     int
}

func (m *metrics) record(tenant, endpoint string, code int) {
	m.mu.Lock()
	if m.requests == nil {
		m.requests = make(map[reqKey]int64)
	}
	m.requests[reqKey{tenant, endpoint, code}]++
	m.mu.Unlock()
}

// writeTo renders the exposition. Series are sorted so scrapes are
// diffable and tests can assert on stable output.
func (m *metrics) writeTo(w io.Writer, s *Server) {
	m.mu.Lock()
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	counts := make([]int64, len(keys))
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.tenant != b.tenant {
			return a.tenant < b.tenant
		}
		if a.endpoint != b.endpoint {
			return a.endpoint < b.endpoint
		}
		return a.code < b.code
	})
	for i, k := range keys {
		counts[i] = m.requests[k]
	}
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP reoptd_requests_total Requests served, by tenant, endpoint and status code (499 = client gone).")
	fmt.Fprintln(w, "# TYPE reoptd_requests_total counter")
	for i, k := range keys {
		fmt.Fprintf(w, "reoptd_requests_total{tenant=%q,endpoint=%q,code=\"%d\"} %d\n",
			k.tenant, k.endpoint, k.code, counts[i])
	}

	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintln(w, "# HELP reoptd_in_flight Admitted session calls currently running, per tenant.")
	fmt.Fprintln(w, "# TYPE reoptd_in_flight gauge")
	for _, name := range names {
		fmt.Fprintf(w, "reoptd_in_flight{tenant=%q} %d\n", name, s.tenants[name].sess.InFlight())
	}

	fmt.Fprintln(w, "# HELP reoptd_validation_cache_hits_total Shared validation-cache hits, per tenant.")
	fmt.Fprintln(w, "# TYPE reoptd_validation_cache_hits_total counter")
	fmt.Fprintln(w, "# HELP reoptd_validation_cache_misses_total Shared validation-cache misses, per tenant.")
	fmt.Fprintln(w, "# TYPE reoptd_validation_cache_misses_total counter")
	for _, name := range names {
		hits, misses := s.tenants[name].sess.CacheStats()
		fmt.Fprintf(w, "reoptd_validation_cache_hits_total{tenant=%q} %d\n", name, hits)
		fmt.Fprintf(w, "reoptd_validation_cache_misses_total{tenant=%q} %d\n", name, misses)
	}

	fmt.Fprintln(w, "# HELP reoptd_validation_rows_counted_total Sample rows counted by the sub-results validations stored, per tenant.")
	fmt.Fprintln(w, "# TYPE reoptd_validation_rows_counted_total counter")
	fmt.Fprintln(w, "# HELP reoptd_validation_rows_materialized_total Physical rows those sub-results were materialized in (counted / materialized = weight compression), per tenant.")
	fmt.Fprintln(w, "# TYPE reoptd_validation_rows_materialized_total counter")
	for _, name := range names {
		counted, materialized := s.tenants[name].sess.RowStats()
		fmt.Fprintf(w, "reoptd_validation_rows_counted_total{tenant=%q} %d\n", name, counted)
		fmt.Fprintf(w, "reoptd_validation_rows_materialized_total{tenant=%q} %d\n", name, materialized)
	}

	b := s.cat.Bytes()
	fmt.Fprintln(w, "# HELP reoptd_catalog_bytes Catalog column data resident in memory, by part: tables (typed columns and NULL marking), table_index (the tables' secondary indexes: sorted permutations and run offsets, which full-ratio samples read too), samples (sample columns not shared with a table), sample_index (sorted permutations and run offsets the samples built themselves), sample_copies (the ordered column copies the samples' range lookups built). String payloads are not counted.")
	fmt.Fprintln(w, "# TYPE reoptd_catalog_bytes gauge")
	for _, part := range []struct {
		name  string
		bytes int64
	}{{"tables", b.Tables}, {"table_index", b.TableIndex}, {"samples", b.Samples}, {"sample_index", b.SampleIndex}, {"sample_copies", b.SampleCopies}} {
		fmt.Fprintf(w, "reoptd_catalog_bytes{part=%q} %d\n", part.name, part.bytes)
	}

	ready := 1
	if s.draining.Load() {
		ready = 0
	}
	fmt.Fprintln(w, "# HELP reoptd_ready Whether the daemon is accepting traffic (0 while draining).")
	fmt.Fprintln(w, "# TYPE reoptd_ready gauge")
	fmt.Fprintf(w, "reoptd_ready %d\n", ready)
}
