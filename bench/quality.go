package main

import (
	"fmt"
	"time"

	"reopt"
	"reopt/internal/executor"
)

// qualityQueries is the size of each workload's fixed quality subset.
const qualityQueries = 12

// quality is the guard's verdict over the subset: a benchmark that
// reports speed alone would reward validating less, so the work the
// chosen plans do is reported beside it and wrong answers are failed
// operations.
type quality struct {
	checked       int
	failures      []string
	finalEvals    int64 // executor operator evaluations, final plans
	originalEvals int64 // same, the optimizer's unvalidated plans
	finalRun      time.Duration
}

func (q *quality) failf(format string, args ...any) {
	q.failures = append(q.failures, fmt.Sprintf(format, args...))
}

func (q *quality) workRatio() float64 {
	if q.originalEvals == 0 {
		return 0
	}
	return float64(q.finalEvals) / float64(q.originalEvals)
}

// guard checks every query of the subset: the served answer converged
// and carries the fingerprint of an in-process serial reference
// (one worker, private cache, no scheduler, no template sharing); the
// reference's final plan returns the same COUNT(*) as the optimizer's
// original plan, and 0 where the workload is empty by construction.
// served is how the system under test answers one query.
func guard(cat *reopt.Catalog, empty bool, sqls []string, served func(sql string) (fingerprint string, converged bool, err error)) quality {
	var q quality
	opt := reopt.NewOptimizer(cat, reopt.DefaultOptimizerConfig())
	for i, src := range sqls {
		q.checked++
		query, err := reopt.Parse(src, cat)
		if err != nil {
			q.failf("query %d: parse: %v", i, err)
			continue
		}
		original, err := opt.Optimize(query, nil)
		if err != nil {
			q.failf("query %d: optimize: %v", i, err)
			continue
		}
		ref := reopt.NewReoptimizer(opt, cat)
		ref.Opts.Workers = 1
		res, err := ref.Reoptimize(query)
		if err != nil {
			q.failf("query %d: reference re-optimization: %v", i, err)
			continue
		}
		fp, converged, err := served(src)
		switch {
		case err != nil:
			q.failf("query %d: served: %v", i, err)
		case !converged:
			q.failf("query %d: served answer did not converge", i)
		case fp != res.Final.Fingerprint():
			q.failf("query %d: served plan differs from the serial reference", i)
		}
		run := func(p *reopt.Plan) *reopt.ExecResult {
			r, err := executor.Run(p, cat, executor.Options{CountOnly: true})
			if err != nil {
				q.failf("query %d: execute: %v", i, err)
				return nil
			}
			return r
		}
		fin, orig := run(res.Final), run(original)
		if fin == nil || orig == nil {
			continue
		}
		q.finalEvals += fin.Counters.OperatorEvals
		q.originalEvals += orig.Counters.OperatorEvals
		q.finalRun += fin.Duration
		if fin.Count != orig.Count {
			q.failf("query %d: final plan counts %d, original plan %d", i, fin.Count, orig.Count)
		} else if empty && fin.Count != 0 {
			q.failf("query %d: counts %d on a workload that is empty by construction", i, fin.Count)
		}
	}
	return q
}
