package executor

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sql"
	"reopt/internal/workload/tpch"
)

func TestExplainAnalyze(t *testing.T) {
	cat := buildCatalog(t, 21, 400, 200)
	l := scanNode(cat, "l")
	l.Rows = 1 // deliberately wrong estimate
	r := scanNode(cat, "r")
	r.Rows = 200
	j := joinNode(plan.HashJoin, l, r, kPred)
	j.Rows = 50
	p := &plan.Plan{Root: j, Query: &sql.Query{}}
	res, err := Run(p, cat, Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	out := ExplainAnalyze(p, res)
	for _, want := range []string{
		"HashJoin", "SeqScan on l", "actual=400", "underestimated",
		"Execution:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain analyze missing %q:\n%s", want, out)
		}
	}
}

func TestExplainAnalyzeOverestimate(t *testing.T) {
	cat := buildCatalog(t, 22, 10, 10)
	l := scanNode(cat, "l")
	l.Rows = 100000
	p := &plan.Plan{Root: l, Query: &sql.Query{}}
	res, err := Run(p, cat, Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if out := ExplainAnalyze(p, res); !strings.Contains(out, "overestimated") {
		t.Errorf("missing overestimate marker:\n%s", out)
	}
}

// TestExplainAnalyzeGroupBy: a GROUP BY plan renders its whole tree, the
// aggregate over its joins and scans, each operator's line annotated
// with the rows it produced; without the annotations the text is
// plan.Explain's.
func TestExplainAnalyzeGroupBy(t *testing.T) {
	cat, err := tpch.Generate(tpch.Config{Seed: 1, Customers: 150, Z: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Parse(`SELECT COUNT(*) FROM customer, orders, nation
		WHERE c_custkey = o_custkey AND c_nationkey = n_nationkey
		GROUP BY n_name`, cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.New(cat, optimizer.DefaultConfig()).Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, cat, Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	out := ExplainAnalyze(p, res)
	if want := fmt.Sprintf("HashAggregate by nation.n_name  (rows=%.1f cost=%.1f)  (actual=%d)", p.EstRows(), p.Cost(), res.Count); !strings.HasPrefix(out, want) {
		t.Errorf("explain analyze does not start with %q:\n%s", want, out)
	}
	if n := strings.Count(out, "(actual="); n != 6 {
		t.Errorf("%d annotated operators, want 6 (aggregate, 2 joins, 3 scans):\n%s", n, out)
	}
	body, _, _ := strings.Cut(out, "Execution:")
	notes := regexp.MustCompile(`  \(actual=\d+\)(  \[(under|over)estimated \d+x\])?`)
	if got := notes.ReplaceAllString(body, ""); got != p.Explain() {
		t.Errorf("explain analyze without annotations:\n%s\nplan.Explain:\n%s", got, p.Explain())
	}
}
