package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"reopt/reoptclient"
)

// Quota is one tenant's resource envelope: every knob maps onto a
// Session option, so a tenant's overload, memory pressure, or panic is
// contained by the library's failure model — one tenant's session can
// neither starve nor corrupt another's.
type Quota struct {
	// Workers once bounded the parallelism inside one validation.
	//
	// Deprecated: Workers no longer selects anything — a validation runs
	// on its request's goroutine, and MaxInFlight bounds how many run at
	// once. The field still parses so existing config files load, and
	// bench/ names it.
	Workers int `json:"workers"`
	// SampleShards once split each sample scan into shards.
	//
	// Deprecated: samples are no longer sharded. The field still parses
	// so existing config files load, then does nothing; bench/ is its
	// last caller.
	SampleShards int `json:"sample_shards"`
	// MaxInFlight and QueueDepth are the admission gate
	// (reopt.WithMaxInFlight): at most MaxInFlight expensive calls run,
	// QueueDepth more wait FIFO, the rest shed with 429. 0 = unlimited.
	MaxInFlight int `json:"max_in_flight"`
	QueueDepth  int `json:"queue_depth"`
	// MemoryBudget caps values materialized per validation
	// (reopt.WithMemoryBudget; 0 = unlimited). Breaches degrade
	// re-optimizations to best-so-far 200s, never 5xx.
	MemoryBudget int64 `json:"memory_budget"`
	// CacheEntries configures the tenant's cross-query validation
	// cache: 0 disables it, > 0 bounds it to that many subtree
	// entries, -1 selects the default budget (reopt.WithSharedCache).
	// Any other negative value is rejected.
	CacheEntries int `json:"cache_entries"`
	// CacheValues additionally bounds the cache by the boundary-column
	// cells and weights its sub-results hold (reopt.WithSharedCacheValues;
	// 0 = unbounded). It needs a cache: a non-zero value with
	// CacheEntries 0 is rejected.
	CacheValues int `json:"cache_values"`
	// Scheduler and SchedulerWindow once gathered the tenant's
	// concurrent validations into waves.
	//
	// Deprecated: there is no scheduler; every validation runs on its
	// request's goroutine. The fields still parse so existing config
	// files load, then do nothing; bench/ is their last caller.
	Scheduler       bool                 `json:"scheduler"`
	SchedulerWindow reoptclient.Duration `json:"scheduler_window"`
	// TemplateSharing once indexed the tenant's cached validation scans
	// by template.
	//
	// Deprecated: there is no template sharing. The field still parses so
	// existing config files load, then does nothing; bench/ is its last
	// caller.
	TemplateSharing bool `json:"template_sharing"`
}

// Config is the daemon's startup configuration. The tenant set is
// fixed at startup: a session (and its quota) exists per listed tenant,
// plus one for the default tenant when Default is non-nil. Requests
// naming any other tenant are rejected with 404 — sessions are never
// minted on demand, so an attacker cannot manufacture quota by
// inventing tenant names.
type Config struct {
	// Listen is the daemon's address (cmd/reoptd's -listen overrides).
	Listen string `json:"listen"`
	// DrainGrace bounds how long a SIGTERM drain may take before the
	// daemon gives up and exits non-zero.
	DrainGrace reoptclient.Duration `json:"drain_grace"`
	// Default, when non-nil, is the quota of the default tenant —
	// where requests without an X-Reopt-Tenant header land.
	Default *Quota `json:"default"`
	// Tenants maps tenant names to their quotas.
	Tenants map[string]Quota `json:"tenants"`
}

// DefaultTenant is the name the default quota's session is registered
// under; requests without a tenant header resolve to it.
const DefaultTenant = "default"

// DefaultQuota is a bounded single-tenant envelope: enough concurrency
// to keep every core validating, a queue one burst deep, a
// per-validation memory budget far above any sane plan, and the
// cross-query cache on. A daemon started with no config file serves
// this.
func DefaultQuota() Quota {
	n := runtime.GOMAXPROCS(0)
	return Quota{
		MaxInFlight:  2 * n,
		QueueDepth:   8 * n,
		MemoryBudget: 64 << 20,
		CacheEntries: -1,
	}
}

// DefaultConfig is the zero-file configuration: one default tenant.
func DefaultConfig() Config {
	q := DefaultQuota()
	return Config{
		Listen:     ":8372",
		DrainGrace: reoptclient.Duration(15 * time.Second),
		Default:    &q,
	}
}

// LoadConfig reads a JSON config file. Unknown fields are rejected so
// a typoed quota knob fails loudly at startup instead of silently
// leaving a tenant unbounded.
func LoadConfig(path string) (Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("server: read config: %w", err)
	}
	cfg := DefaultConfig()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("server: parse config %s: %w", path, err)
	}
	if err := cfg.validate(); err != nil {
		return Config{}, fmt.Errorf("server: config %s: %w", path, err)
	}
	return cfg, nil
}

func (c Config) validate() error {
	if c.Default == nil && len(c.Tenants) == 0 {
		return fmt.Errorf("no tenants configured and no default quota")
	}
	if c.Default != nil {
		if err := c.Default.check(); err != nil {
			return fmt.Errorf("default quota: %w", err)
		}
	}
	for name, q := range c.Tenants {
		if name == "" {
			return fmt.Errorf("tenant with empty name (use \"default\" via the default quota)")
		}
		if err := q.check(); err != nil {
			return fmt.Errorf("tenant %q: %w", name, err)
		}
	}
	return nil
}

// check rejects a quota bound below zero, which no knob accepts except
// CacheEntries' -1 (the default budget), and a cache value bound on a
// tenant whose cache is off, which would be silently ignored.
func (q Quota) check() error {
	if q.MaxInFlight < 0 || q.QueueDepth < 0 || q.MemoryBudget < 0 ||
		q.CacheEntries < -1 || q.CacheValues < 0 {
		return fmt.Errorf("negative quota values")
	}
	if q.CacheEntries == 0 && q.CacheValues != 0 {
		return fmt.Errorf("cache_values %d bounds a cache that cache_entries 0 turns off", q.CacheValues)
	}
	return nil
}
