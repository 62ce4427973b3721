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

// TestLoadConfigRejectsUnknownField: a typoed knob fails loudly instead of
// leaving the tenant on defaults.
func TestLoadConfigRejectsUnknownField(t *testing.T) {
	_, err := server.LoadConfig(writeConfig(t, `{"default": {"max_in_flite": 2}}`))
	if err == nil || !strings.Contains(err.Error(), "max_in_flite") {
		t.Fatalf("LoadConfig err = %v, want an unknown-field error naming max_in_flite", err)
	}
}

// TestLoadConfigAcceptsRetiredFields: a config file written for an older
// daemon, still setting the retired template_sharing and sample_shards
// knobs, loads and serves.
func TestLoadConfigAcceptsRetiredFields(t *testing.T) {
	cfg, err := server.LoadConfig(writeConfig(t,
		`{"default": {"max_in_flight": 2, "template_sharing": true, "sample_shards": 4}}`))
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
