package sampling

// Scheduler: the names of the deleted workload validation scheduler,
// kept as no-ops because bench/ compiles against them. Every validation
// runs on the goroutine that asked for it (EstimatePlansCfg).

import (
	"context"
	"sync/atomic"
	"time"

	"reopt/internal/catalog"
	"reopt/internal/plan"
)

// Scheduler once gathered concurrent queries' validations into waves.
//
// Deprecated: there is no scheduler; a Scheduler's clients validate
// directly, and bench/ is its last caller.
type Scheduler struct {
	cat       *catalog.Catalog
	memBudget atomic.Int64
}

// NewScheduler returns a Scheduler over cat; workers and window are
// ignored.
//
// Deprecated: see Scheduler.
func NewScheduler(cat *catalog.Catalog, workers int, window time.Duration) *Scheduler {
	return &Scheduler{cat: cat}
}

// SetMemBudget sets the per-plan value budget the clients validate under
// (ValidateConfig.MemBudget; <= 0 means unlimited).
func (s *Scheduler) SetMemBudget(values int64) { s.memBudget.Store(values) }

// SetShards does nothing.
//
// Deprecated: samples are not sharded.
func (s *Scheduler) SetShards(n int) {}

// SetTemplates does nothing.
//
// Deprecated: there is no template sharing.
func (s *Scheduler) SetTemplates(on bool) {}

// SchedulerStats once counted waves, their requests, and the requests
// that shared a wave.
//
// Deprecated: nothing is coalesced; every count is zero.
type SchedulerStats struct {
	Waves, Requests, Coalesced int64
}

// Stats returns zeros.
//
// Deprecated: see SchedulerStats.
func (s *Scheduler) Stats() SchedulerStats { return SchedulerStats{} }

// SchedulerClient is one query's handle on a Scheduler; it satisfies
// core's Validator interface.
//
// Deprecated: see Scheduler.
type SchedulerClient struct{ s *Scheduler }

// Register returns a client.
//
// Deprecated: see Scheduler.
func (s *Scheduler) Register() *SchedulerClient { return &SchedulerClient{s: s} }

// Close does nothing.
//
// Deprecated: see Scheduler.
func (c *SchedulerClient) Close() {}

// ValidatePlans is EstimatePlansCfg under the scheduler's memory budget.
func (c *SchedulerClient) ValidatePlans(ctx context.Context, plans []*plan.Plan, cache Cache) ([]*Estimate, error) {
	return EstimatePlansCfg(ctx, plans, c.s.cat, cache, ValidateConfig{MemBudget: c.s.memBudget.Load()})
}
