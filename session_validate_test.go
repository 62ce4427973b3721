package reopt_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"reopt"
	"reopt/internal/sampling"
	"reopt/internal/sql"
)

// TestSessionValidateRejectsInexactPlan: a hand-built plan outside the
// skeleton engine's contract — here, one whose query lost its join list,
// so the plan's join applies a predicate the query does not have — fails
// Validate with an error matching ErrUnsupportedPlan, alone or beside a
// supported plan. The shared cache does not grow, and the session goes on
// to serve Validate and Reoptimize exactly as a session that never saw the
// plan does.
func TestSessionValidateRejectsInexactPlan(t *testing.T) {
	cat, qs := ottSession(t)
	ctx := context.Background()
	open := func() (*reopt.Session, *reopt.WorkloadCache) {
		cache := reopt.NewWorkloadCache(0)
		s, err := reopt.Open(cat, reopt.WithCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		return s, cache
	}
	s, cache := open()
	twin, twinCache := open()
	p, err := s.Optimize(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, sess := range []*reopt.Session{s, twin} {
		if _, err := sess.Validate(ctx, p); err != nil {
			t.Fatal(err)
		}
	}

	stripped := *qs[0]
	stripped.Joins = nil
	bad := &reopt.Plan{Root: p.Root, Query: &stripped}
	before := cache.Len()
	for _, plans := range [][]*reopt.Plan{{bad}, {bad, p}, {p, bad}} {
		if _, err := s.Validate(ctx, plans...); !errors.Is(err, reopt.ErrUnsupportedPlan) {
			t.Fatalf("Validate of %d plans with an inexact one: %v, want ErrUnsupportedPlan", len(plans), err)
		}
		if cache.Len() != before {
			t.Fatalf("a failed Validate grew the shared cache from %d to %d entries", before, cache.Len())
		}
	}

	for _, q := range qs[:3] {
		qp, err := s.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Validate(ctx, qp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Validate(ctx, qp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0].Sets, want[0].Sets) {
			t.Error("Validate after the rejected plan diverged from a session that never saw it")
		}
		res, err := s.Reoptimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := twin.Reoptimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(res) != resultKey(wantRes) {
			t.Error("Reoptimize after the rejected plan diverged from a session that never saw it")
		}
	}
	if !slices.Equal(cache.Keys(), twinCache.Keys()) {
		t.Errorf("shared cache holds %d keys, a session that never saw the plan %d", cache.Len(), twinCache.Len())
	}
}

// TestSessionValidateRejectsNilPlans: a nil plan, a nil among the plans,
// and a plan without a query or root are outside the engine's contract: Validate
// fails with an error matching ErrUnsupportedPlan instead of panicking,
// and the session serves the next call as before.
func TestSessionValidateRejectsNilPlans(t *testing.T) {
	cat, qs := ottSession(t)
	ctx := context.Background()
	s, err := reopt.Open(cat, reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Optimize(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, plans := range map[string][]*reopt.Plan{
		"nil plan":           {nil},
		"nil after a plan":   {p, nil},
		"plan without query": {{Root: p.Root}},
		"plan without root":  {{Query: p.Query}},
	} {
		ests, err := s.Validate(ctx, plans...)
		if !errors.Is(err, reopt.ErrUnsupportedPlan) || ests != nil {
			t.Errorf("%s: %d estimates, %v; want ErrUnsupportedPlan", name, len(ests), err)
		}
	}
	if ests, err := s.Validate(ctx, p); err != nil || len(ests) != 1 || len(ests[0].Sets) == 0 {
		t.Fatalf("Validate after the rejected calls: %v", err)
	}
}

// TestSessionValidateMixedQueries: one Validate call holds plans of two
// queries — one of them a SQL text parsed twice, so two Query values
// whose sub-results share keys — and, in the middle, a plan that
// breaches the session's memory budget. The call fails with
// ErrMemoryBudget, the shared cache ends up holding exactly the keys of a
// twin session that validated the other plans one at a time, and each
// other plan, validated alone afterwards, returns the twin's Sets bit for
// bit.
func TestSessionValidateMixedQueries(t *testing.T) {
	cat, qs := ottSession(t)
	ctx := context.Background()
	const chain = "SELECT COUNT(*) FROM r1, r2, r3 WHERE r1.a = 3 AND r2.a = 3 AND r3.a = 3 AND r1.b = r2.b AND r2.b = r3.b"
	plain, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	var others []*reopt.Plan
	for _, src := range []string{chain, "", chain} {
		q := qs[2]
		if src != "" {
			if q, err = plain.Parse(src); err != nil {
				t.Fatal(err)
			}
		}
		p, err := plain.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		others = append(others, p)
	}
	if others[0].Query == others[2].Query {
		t.Fatal("one SQL text parsed twice gave one Query")
	}
	qBig, err := plain.Parse("SELECT COUNT(*) FROM r1, r2 WHERE r1.b = r2.b")
	if err != nil {
		t.Fatal(err)
	}
	big, err := plain.Optimize(qBig)
	if err != nil {
		t.Fatal(err)
	}

	// The smallest power-of-two budget every other plan fits.
	validates := func(p *reopt.Plan, budget int64) error {
		s, err := reopt.Open(cat, reopt.WithMemoryBudget(budget))
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Validate(ctx, p)
		return err
	}
	var budget int64
	for b := int64(2); b < 1<<40 && budget == 0; b *= 2 {
		budget = b
		for _, p := range others {
			if validates(p, b) != nil {
				budget = 0
			}
		}
	}
	if err := validates(big, budget); !errors.Is(err, reopt.ErrMemoryBudget) {
		t.Fatalf("budget %d: the unfiltered join validates (%v); test data broken", budget, err)
	}

	open := func() (*reopt.Session, *reopt.WorkloadCache) {
		cache := reopt.NewWorkloadCache(0)
		s, err := reopt.Open(cat, reopt.WithCache(cache), reopt.WithMemoryBudget(budget))
		if err != nil {
			t.Fatal(err)
		}
		return s, cache
	}
	s, cache := open()
	twin, twinCache := open()
	mixed := []*reopt.Plan{others[0], big, others[1], others[2]}
	if _, err := s.Validate(ctx, mixed...); !errors.Is(err, reopt.ErrMemoryBudget) {
		t.Fatalf("mixed Validate: %v, want ErrMemoryBudget", err)
	}
	want := make([]*reopt.SamplingEstimate, len(others))
	for i, p := range others {
		ests, err := twin.Validate(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ests[0]
	}
	if !slices.Equal(cache.Keys(), twinCache.Keys()) {
		t.Fatalf("shared cache holds %d keys, the twin's %d", cache.Len(), twinCache.Len())
	}
	for i, p := range others {
		ests, err := s.Validate(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		got := ests[0].Sets
		same := len(got) == len(want[i].Sets)
		for j := 0; same && j < len(got); j++ {
			g, w := got[j], want[i].Sets[j]
			same = g.Mask == w.Mask && g.Key == w.Key && g.SampleRows == w.SampleRows &&
				math.Float64bits(g.Rows) == math.Float64bits(w.Rows)
		}
		if !same {
			t.Errorf("plan %d: Sets %v after the mixed call, the twin's %v", i, got, want[i].Sets)
		}
	}
}

// TestSessionDuplicatePredicates: the parser keeps a join predicate
// written many times, and the optimizer applies every copy at the one
// join, so the plan still applies exactly the query's predicates — at 65
// copies as at one. Reoptimize and Validate succeed, and the skeleton
// engine counts every round's plan with no error.
func TestSessionDuplicatePredicates(t *testing.T) {
	cat, _ := ottSession(t)
	ctx := context.Background()
	s, err := reopt.Open(cat, reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Parse("SELECT COUNT(*) FROM r1, r2, r3 WHERE r1.a = 3 AND r2.a = 3 AND r3.a = 5 AND r2.b = r3.b" +
		strings.Repeat(" AND r1.b = r2.b", 65))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Joins) != 66 {
		t.Fatalf("the parser kept %d join predicates, want 66", len(q.Joins))
	}
	res, err := s.Reoptimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for i, rd := range res.Rounds {
		prep, err := sampling.Prepare(sql.NewGraph(q), nil, cat, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prep.Count(ctx, rd.Plan.Root); err != nil {
			t.Fatalf("round %d plan: %v", i+1, err)
		}
	}
	if _, err := s.Validate(ctx, res.Final); err != nil {
		t.Fatal(err)
	}
}

// TestFromListLimit: a hand-built query whose FROM list is longer than
// sql.MaxTables — chains of 64, 65 and 66 entries over r1 — is refused
// with sql.ErrTooManyTables by Reoptimize, ReoptimizeMultiSeed, Optimize
// and Validate alike, before any planning or validation starts. Only
// refused sizes run: planning a chain at the limit through a session
// without a budget costs far more than a test may spend.
func TestFromListLimit(t *testing.T) {
	cat, _ := ottSession(t)
	s, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, n := range []int{sql.MaxTables + 1, sql.MaxTables + 2, sql.MaxTables + 3} {
		q := &reopt.Query{CountStar: true}
		for i := range n {
			alias := fmt.Sprint("t", i)
			q.Tables = append(q.Tables, sql.TableRef{Name: "r1", Alias: alias})
			if i > 0 {
				q.Joins = append(q.Joins, sql.JoinPred{
					Left:  sql.ColRef{Table: fmt.Sprint("t", i-1), Column: "b"},
					Right: sql.ColRef{Table: alias, Column: "b"},
				})
			}
		}
		if _, err := s.Reoptimize(ctx, q); !errors.Is(err, sql.ErrTooManyTables) {
			t.Errorf("%d tables: Reoptimize: %v, want ErrTooManyTables", n, err)
		}
		if _, err := s.ReoptimizeMultiSeed(ctx, q, 2); !errors.Is(err, sql.ErrTooManyTables) {
			t.Errorf("%d tables: ReoptimizeMultiSeed: %v, want ErrTooManyTables", n, err)
		}
		if _, err := s.Optimize(q); !errors.Is(err, sql.ErrTooManyTables) {
			t.Errorf("%d tables: Optimize: %v, want ErrTooManyTables", n, err)
		}
		if _, err := s.Validate(ctx, &reopt.Plan{Query: q}); !errors.Is(err, sql.ErrTooManyTables) {
			t.Errorf("%d tables: Validate: %v, want ErrTooManyTables", n, err)
		}
	}
}
