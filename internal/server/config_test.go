package server_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reopt/internal/server"
)

// writeConfig writes body to a config file in a fresh directory.
func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reoptd.json")
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadConfigRejectsNegativeDefaultQuota: a negative bound on the
// default tenant fails at startup, as it does on a named tenant, through
// LoadConfig and through New — it is never read as "unlimited".
func TestLoadConfigRejectsNegativeDefaultQuota(t *testing.T) {
	cat := ottCatalog(t)
	for _, field := range []string{"max_in_flight", "queue_depth", "memory_budget"} {
		_, err := server.LoadConfig(writeConfig(t, `{"default": {"`+field+`": -1}}`))
		if err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("default %s = -1: LoadConfig err = %v, want a negative-quota error", field, err)
		}
	}
	q := server.DefaultQuota()
	q.QueueDepth = -1
	if _, err := server.New(cat, server.Config{Default: &q}); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("New with a negative default queue depth: err = %v, want a negative-quota error", err)
	}
}

// TestLoadConfigRejectsNegativeCacheBounds: cache_entries' only negative
// value is -1 (the default budget) and cache_values has none. Any other
// negative bound, on the default tenant or a named one, fails at startup
// instead of loading as the default budget or as unbounded.
func TestLoadConfigRejectsNegativeCacheBounds(t *testing.T) {
	for _, quota := range []string{`{"cache_entries": -7}`, `{"cache_values": -5}`, `{"cache_entries": -1, "cache_values": -1}`} {
		for _, body := range []string{`{"default": ` + quota + `}`, `{"tenants": {"alpha": ` + quota + `}}`} {
			_, err := server.LoadConfig(writeConfig(t, body))
			if err == nil || !strings.Contains(err.Error(), "negative") {
				t.Errorf("%s: LoadConfig err = %v, want a negative-quota error", body, err)
			}
		}
	}
	q := server.DefaultQuota()
	q.CacheValues = -1
	if _, err := server.New(ottCatalog(t), server.Config{Tenants: map[string]server.Quota{"alpha": q}}); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("New with a negative cache value bound: err = %v, want a negative-quota error", err)
	}
	cfg, err := server.LoadConfig(writeConfig(t, `{"default": {"cache_entries": -1, "cache_values": 1000}}`))
	if err != nil {
		t.Fatalf("cache_entries -1 (the default budget): %v", err)
	}
	if cfg.Default.CacheEntries != -1 || cfg.Default.CacheValues != 1000 {
		t.Fatalf("cache bounds not loaded: %+v", cfg.Default)
	}
}

// TestLoadConfigRejectsCacheValuesWithoutCache: cache_values bounds the
// tenant's cache, so setting it on a tenant whose cache is off
// (cache_entries 0) fails at startup instead of being ignored.
func TestLoadConfigRejectsCacheValuesWithoutCache(t *testing.T) {
	quota := `{"cache_entries": 0, "cache_values": 5000}`
	for _, body := range []string{`{"default": ` + quota + `}`, `{"tenants": {"alpha": ` + quota + `}}`} {
		if _, err := server.LoadConfig(writeConfig(t, body)); err == nil || !strings.Contains(err.Error(), "cache_values") {
			t.Errorf("%s: LoadConfig err = %v, want an error naming cache_values", body, err)
		}
	}
	if _, err := server.LoadConfig(writeConfig(t, `{"default": {"cache_entries": 0}}`)); err != nil {
		t.Errorf("cache off without a value bound: %v", err)
	}
}

// TestLoadConfigRejectsUnknownField: a typoed knob fails loudly instead of
// leaving the tenant on defaults.
func TestLoadConfigRejectsUnknownField(t *testing.T) {
	_, err := server.LoadConfig(writeConfig(t, `{"default": {"max_in_flite": 2}}`))
	if err == nil || !strings.Contains(err.Error(), "max_in_flite") {
		t.Fatalf("LoadConfig err = %v, want an unknown-field error naming max_in_flite", err)
	}
}

// TestLoadConfigAcceptsRetiredFields: a config file written for an older
// daemon, still setting the retired template_sharing, sample_shards,
// scheduler and scheduler_window knobs, loads and serves.
func TestLoadConfigAcceptsRetiredFields(t *testing.T) {
	cfg, err := server.LoadConfig(writeConfig(t,
		`{"default": {"max_in_flight": 2, "template_sharing": true, "sample_shards": 4, "scheduler": true, "scheduler_window": "1ms"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Default == nil || cfg.Default.MaxInFlight != 2 {
		t.Fatalf("default quota not loaded: %+v", cfg.Default)
	}
	srv, err := server.New(ottCatalog(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
}
