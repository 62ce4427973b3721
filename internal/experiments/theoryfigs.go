package experiments

import (
	"fmt"
	"math"

	"reopt/internal/ballsim"
	"reopt/internal/stats"
	"reopt/internal/workload/ott"
)

// Fig3 reproduces Figure 3: S_N against √N and 2√N for N up to 1000,
// plus Monte Carlo verification at selected points.
func (r *Runner) Fig3() (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "S_N with respect to N (Equation 1, Theorem 3 bound)",
		Headers: []string{"N", "S_N", "sqrt(N)", "2*sqrt(N)", "simulated"},
	}
	points := []int{1, 10, 50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	for _, n := range points {
		sim := ballsim.SimulateMean(n, 2000, r.cfg.Seed+int64(n))
		t.AddRow(n, ballsim.SN(n), math.Sqrt(float64(n)),
			2*math.Sqrt(float64(n)), sim)
	}
	t.Notes = append(t.Notes, "paper: S_N grows like sqrt(N), staying within [sqrt(N), 2*sqrt(N)]")
	return t, nil
}

// AppB reproduces the Appendix B bounds: the overestimation-only case
// terminates within m+1 steps; the underestimation-only case within
// S_{N/M} expected steps — including the paper's N=1000, M=10 example
// (S_N = 39 vs S_{N/M} = 12).
func (r *Runner) AppB() (*Table, error) {
	t := &Table{
		ID:      "appB",
		Title:   "Appendix B special-case bounds",
		Headers: []string{"case", "params", "bound"},
	}
	for _, m := range []int{3, 5, 8, 12} {
		t.AddRow("overestimates-only", fmtParams("m", m), ballsim.OverestimateBound(m))
	}
	for _, p := range []struct{ n, m int }{{1000, 10}, {1000, 1}, {500, 5}} {
		t.AddRow("underestimates-only", fmtParams2("N", p.n, "M", p.m),
			ballsim.UnderestimateBound(p.n, p.m))
	}
	t.AddRow("general (Theorem 4)", fmtParams("N", 1000), ballsim.SN(1000))
	return t, nil
}

// Ex2 reproduces the §5.3.1 analysis (Example 2): 2-D histograms with
// l² buckets estimate identical selectivities for an empty OTT query
// (a1 ≠ a2) and a non-empty one (a1 = a2), because in-bucket uniformity
// hides the A=B correlation.
func (r *Runner) Ex2() (*Table, error) {
	cat, err := ott.Generate(ott.Config{
		NumTables:    2,
		RowsPerValue: r.cfg.OTTRowsPerValue,
		Domains:      []int{100, 100},
		Seed:         r.cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	t1, err := cat.Table(ott.TableName(1))
	if err != nil {
		return nil, err
	}
	t2, err := cat.Table(ott.TableName(2))
	if err != nil {
		return nil, err
	}
	// Example 2 uses m=100 distinct values and l=m/2=50 buckets per
	// dimension (2500 buckets per histogram).
	h1, err := stats.BuildHist2D(t1, "a", "b", 50, 50)
	if err != nil {
		return nil, err
	}
	h2, err := stats.BuildHist2D(t2, "a", "b", 50, 50)
	if err != nil {
		return nil, err
	}

	countActual := func(a1, a2 int64) int {
		// |σ(A1=a1)(R1) ⋈ B1=B2 σ(A2=a2)(R2)|: B=A makes this
		// |σ1|*|σ2| when a1==a2, else 0.
		if a1 != a2 {
			return 0
		}
		// Column a of an OTT table holds ints, never NULL.
		c1 := countEq(t1.ColData().Col(0).Ints, a1)
		return c1 * countEq(t2.ColData().Col(0).Ints, a2)
	}
	total := float64(t1.NumRows()) * float64(t2.NumRows())

	t := &Table{
		ID:      "ex2",
		Title:   "Example 2: 2-D histograms cannot separate empty from non-empty OTT joins",
		Headers: []string{"query", "a1", "a2", "hist2d_est_rows", "actual_rows"},
	}
	// q2 (non-empty): a1 = a2 = 0; q1 (empty): a1 = 0, a2 = 1 — both
	// fall in the same bucket pair, so the estimates coincide.
	estQ2 := stats.EstimateOTTJoinSel(h1, h2, 0, 0) * total
	estQ1 := stats.EstimateOTTJoinSel(h1, h2, 0, 1) * total
	t.AddRow("q2 (non-empty)", 0, 0, estQ2, countActual(0, 0))
	t.AddRow("q1 (empty)", 0, 1, estQ1, countActual(0, 1))
	t.Notes = append(t.Notes,
		"identical estimates for q1 and q2 despite actual sizes differing by the full join size — Example 2's point")
	return t, nil
}

func fmtParams(k string, v int) string { return fmt.Sprintf("%s=%d", k, v) }

func fmtParams2(k1 string, v1 int, k2 string, v2 int) string {
	return fmt.Sprintf("%s=%d,%s=%d", k1, v1, k2, v2)
}

// countEq counts the entries of vals equal to v.
func countEq(vals []int64, v int64) int {
	n := 0
	for _, x := range vals {
		if x == v {
			n++
		}
	}
	return n
}
