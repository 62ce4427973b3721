package reopt_test

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"reopt"
	"reopt/internal/executor"
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

// TestSessionDuplicatePredicates: the parser keeps a join predicate
// written many times, and the optimizer applies every copy at the one
// join, so the plan still applies exactly the query's predicates — at 65
// copies as at one. Reoptimize and Validate succeed, and the skeleton
// engine counts every round's plan with no per-plan error.
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
		bp := executor.BatchPlan{Plan: rd.Plan, Prep: executor.NewPrepared(q, nil, 0, nil)}
		_, perPlan, err := executor.CountSkeletonSteps(ctx, []executor.BatchPlan{bp}, cat.Sample, executor.SkelConfig{})
		if err != nil || perPlan[0] != nil {
			t.Fatalf("round %d plan: %v %v", i+1, err, perPlan[0])
		}
	}
	if _, err := s.Validate(ctx, res.Final); err != nil {
		t.Fatal(err)
	}
}
