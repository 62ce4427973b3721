// Fixture modeling a template index over cached scans (the
// cache-hygiene contract, DESIGN.md §5): a (template, constant-vector)
// sub-result index is still a validation cache, so a refinement that
// failed, a shared union scan that was cancelled mid-wave, or a
// memory-budget breach must never store what it has — a poisoned
// template entry would serve wrong counts to every contained constant
// that refines from it later.
package app

import "context"

type scan struct{ rows int }

type TemplateCache struct{ m map[uint64]*scan }

func (c *TemplateCache) PutScan(fp uint64, s *scan) { c.m[fp] = s }
func (c *TemplateCache) Get(fp uint64) (*scan, bool) {
	s, ok := c.m[fp]
	return s, ok
}

func unionScan() (*scan, error)       { return &scan{}, nil }
func refine(s *scan) (*scan, error)   { return s, nil }
func partial(s *scan, n int) *scan    { return s }
func budgetErr(s *scan) (bool, error) { return false, nil }

// A failed refinement must not index what it produced so far.
func storeFailedRefinement(c *TemplateCache, base *scan) {
	refined, err := refine(base)
	if err != nil {
		c.PutScan(1, refined) // want `cache store on an error/cancellation path`
		return
	}
	c.PutScan(1, refined)
}

// A shared union scan cancelled mid-wave has only scanned a prefix of
// the sample; indexing the partial scan would undercount every
// contained constant.
func storeCancelledUnionScan(ctx context.Context, c *TemplateCache) {
	s, err := unionScan()
	if err != nil {
		return
	}
	if ctx.Err() != nil {
		c.PutScan(2, partial(s, 10)) // want `cache store on an error/cancellation path`
		return
	}
	c.PutScan(2, s)
}

// Waiting out a wave: the done-branch must drop the scan, not index it.
func storeOnWaveAbort(ctx context.Context, c *TemplateCache, scans <-chan *scan) {
	select {
	case s := <-scans:
		c.PutScan(3, s)
	case <-ctx.Done():
		c.PutScan(3, &scan{}) // want `cache store on an error/cancellation path`
	}
}

// A memory-budget breach surfaces as an error; the else-of-ok shape is
// still an error path even when the verdict came from a helper.
func storeOnBudgetBreach(c *TemplateCache, s *scan) {
	_, err := budgetErr(s)
	if err == nil {
		c.PutScan(4, s)
	} else {
		c.PutScan(4, partial(s, 0)) // want `cache store on an error/cancellation path`
	}
}

// TemplateStats is hit/miss accounting, not a cache: recording a miss
// on the error path is expected.
type TemplateStats struct{ misses int }

func (t *TemplateStats) Add(n int) { t.misses += n }

func missOnErrIsFine(t *TemplateStats, base *scan) {
	_, err := refine(base)
	if err != nil {
		t.Add(1)
	}
}
