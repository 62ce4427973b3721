package reopt_test

import (
	"context"
	"testing"

	"reopt"
	"reopt/internal/sampling"
	"reopt/internal/sql"
)

// TestWithConservativeBlendsDelta: WithConservative reaches the run. One
// round validates P_1 either way, and the conservative Γ holds each
// sampled estimate blended with the statistics-only one by its sample
// confidence, where the plain Γ holds the sampled estimate itself.
func TestWithConservativeBlendsDelta(t *testing.T) {
	cat, qs := ottSession(t)
	s, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := qs[4]
	plain, err := s.Reoptimize(ctx, q, reopt.WithMaxRounds(1))
	if err != nil {
		t.Fatal(err)
	}
	blended, err := s.Reoptimize(ctx, q, reopt.WithMaxRounds(1), reopt.WithConservative())
	if err != nil {
		t.Fatal(err)
	}
	ests, err := s.Validate(ctx, plain.Rounds[0].Plan)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := s.Optimizer().Prepare(sql.NewGraph(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, d := range ests[0].Sets {
		w := sampling.ConfidenceWeight(d.SampleRows)
		want := w*d.Rows + (1-w)*pl.StatCardinality(d.Mask)
		if got, _ := plain.Gamma.Get(d.Mask); got != d.Rows {
			t.Errorf("plain Γ[%s] = %v, sampled %v", d.Key, got, d.Rows)
		}
		if got, _ := blended.Gamma.Get(d.Mask); got != want {
			t.Errorf("conservative Γ[%s] = %v, want blend %v (w=%v of sampled %v)", d.Key, got, want, w, d.Rows)
		}
		if want != d.Rows {
			moved++
		}
	}
	if moved == 0 || blended.Gamma.Len() != len(ests[0].Sets) {
		t.Errorf("%d of %d entries blended away from the sample, Γ holds %d", moved, len(ests[0].Sets), blended.Gamma.Len())
	}
}
