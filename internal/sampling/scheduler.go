// Package sampling keeps the names bench/ compiles against: the deleted
// workload validation scheduler, as no-ops, and two aliases. Validation
// itself lives in core (core.Prepare, core.EstimatePlans); every
// validation runs on the goroutine that asked for it.
package sampling

import (
	"context"
	"time"

	"reopt/internal/catalog"
	"reopt/internal/core"
	"reopt/internal/executor"
	"reopt/internal/plan"
)

// Cache is one request's handle on validation.
//
// Deprecated: use *executor.Prepared (core.Prepare makes one).
type Cache = *executor.Prepared

// Estimate is the Δ produced by validating one plan.
//
// Deprecated: use core.Estimate.
type Estimate = core.Estimate

// Scheduler once gathered concurrent queries' validations into waves.
//
// Deprecated: there is no scheduler; a Scheduler's clients validate
// directly, and bench/ is its last caller.
type Scheduler struct {
	cat *catalog.Catalog
}

// NewScheduler returns a Scheduler over cat; workers and window are
// ignored.
//
// Deprecated: see Scheduler.
func NewScheduler(cat *catalog.Catalog, workers int, window time.Duration) *Scheduler {
	return &Scheduler{cat: cat}
}

// SetMemBudget does nothing.
//
// Deprecated: a validation runs under the budget of the handle it is
// given (core.Prepare).
func (s *Scheduler) SetMemBudget(values int64) {}

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

// ValidatePlans is core.EstimatePlans over the scheduler's catalog.
func (c *SchedulerClient) ValidatePlans(ctx context.Context, plans []*plan.Plan, cache Cache) ([]*Estimate, error) {
	return core.EstimatePlans(ctx, plans, c.s.cat, cache)
}
