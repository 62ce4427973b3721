package executor

import (
	"fmt"

	"reopt/internal/plan"
)

// ExplainAnalyze renders the plan with both the optimizer's estimated
// rows and the actual rows each node produced in the given run — the
// diagnostic view that makes cardinality estimation errors visible (the
// errors the re-optimizer exists to fix). It is plan.Explain with each
// operator's line annotated.
func ExplainAnalyze(p *plan.Plan, res *Result) string {
	return p.Explain(func(n plan.Node) string { return actualRows(n, res) }) +
		fmt.Sprintf("Execution: %d rows in %v; %d seq pages, %d random pages, %d tuples, %d operator evals\n",
			res.Count, res.Duration,
			res.Counters.SeqPages, res.Counters.RandPages,
			res.Counters.Tuples, res.Counters.OperatorEvals)
}

// actualRows is a node's EXPLAIN ANALYZE annotation: the rows it
// produced in res, flagged when the estimate is off by 10x or more.
func actualRows(n plan.Node, res *Result) string {
	actual, est := res.NodeRows[n], n.EstRows()
	note := fmt.Sprintf("  (actual=%d)", actual)
	if actual > 0 && est > 0 {
		switch ratio := float64(actual) / est; {
		case ratio >= 10:
			note += fmt.Sprintf("  [underestimated %.0fx]", ratio)
		case ratio <= 0.1:
			note += fmt.Sprintf("  [overestimated %.0fx]", 1/ratio)
		}
	}
	return note
}
