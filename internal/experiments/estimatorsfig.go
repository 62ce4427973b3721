package experiments

import (
	"fmt"

	"reopt"
	"reopt/internal/optimizer"
	"reopt/internal/sketch"
	"reopt/internal/workload/ott"
)

// Estimators is an extension experiment comparing the three estimator
// families the paper's related work surveys — histograms under AVI
// (what optimizers use), sampling (what the paper's re-optimizer uses),
// and AGMS sketches ([4]/[34]) — on the OTT two-table query for both
// the empty (c1 ≠ c2) and non-empty (c1 = c2) constant combinations.
// Histograms cannot tell the two apart; the other two can, which is why
// feeding *any* correlation-aware estimate back into the optimizer
// (Algorithm 1) repairs the plan.
func (r *Runner) Estimators() (*Table, error) {
	cat, err := r.ottCatalog()
	if err != nil {
		return nil, err
	}
	r1, err := cat.Table(ott.TableName(1))
	if err != nil {
		return nil, err
	}
	r2, err := cat.Table(ott.TableName(2))
	if err != nil {
		return nil, err
	}
	sess, err := r.session(cat, optimizer.DefaultConfig())
	if err != nil {
		return nil, err
	}
	opt := sess.Optimizer()

	t := &Table{
		ID:    "estimators",
		Title: "Extension: histogram vs sampling vs AGMS-sketch join estimates on the OTT pair",
		Headers: []string{"case", "c1", "c2", "histogram_avi", "sampling",
			"sketch", "actual"},
	}

	for _, c := range []struct {
		name   string
		c1, c2 int64
	}{
		{"non-empty", 0, 0},
		{"empty", 0, 1},
	} {
		text := fmt.Sprintf(`SELECT COUNT(*) FROM %s AS t1, %s AS t2
			WHERE t1.a = %d AND t2.a = %d AND t1.b = t2.b`,
			r1.Name(), r2.Name(), c.c1, c.c2)
		q, err := sess.Parse(text)
		if err != nil {
			return nil, err
		}
		p, err := sess.Optimize(q)
		if err != nil {
			return nil, err
		}
		histEst, err := opt.EstimateCardinality(q, q.Aliases())
		if err != nil {
			return nil, err
		}
		ests, err := sess.Validate(r.ctx, p)
		if err != nil {
			return nil, err
		}
		var sampJoin float64
		for _, set := range ests[0].Sets {
			if set.Mask == 1<<len(q.Tables)-1 {
				sampJoin = set.Rows
			}
		}

		const depth, width, seed = 7, 512, 23
		s1, err := sketch.SketchColumn(r1, "b", q.SelectionsOn("t1"), depth, width, seed)
		if err != nil {
			return nil, err
		}
		s2, err := sketch.SketchColumn(r2, "b", q.SelectionsOn("t2"), depth, width, seed)
		if err != nil {
			return nil, err
		}
		sketchEst, err := sketch.JoinSize(s1, s2)
		if err != nil {
			return nil, err
		}
		truth, err := sess.Execute(r.ctx, p, reopt.ExecOptions{CountOnly: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(c.name, c.c1, c.c2, histEst, sampJoin, sketchEst, truth.Count)
	}
	t.Notes = append(t.Notes,
		"histogram_avi cannot separate the two cases (Lemma 4; tiny differences come from exact MCV frequencies); sampling and sketches separate them because both observe the filtered join column")
	return t, nil
}
