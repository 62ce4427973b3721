package executor

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
)

// TestRunCtxPreCancelled: an already-cancelled context aborts before any
// work, and the abort leaves nothing behind that a later run would see.
func TestRunCtxPreCancelled(t *testing.T) {
	cat := skelCatalog(t, 1, 200)
	q := skelQuery()
	p := skelPlans(cat, q)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, p, cat, Options{CountOnly: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunCtx: got %v, want context.Canceled", err)
	}
	if _, err := RunCtx(context.Background(), p, cat, Options{CountOnly: true}); err != nil {
		t.Fatalf("re-run after abort: %v", err)
	}
}

// bigJoin returns a two-table hash-join plan emitting ~6M rows plus the
// binder resolving its tables, so a concurrent cancel always lands
// mid-execution.
func bigJoin() (*plan.Plan, func(string) (*storage.Table, error)) {
	l := storage.NewTable("l", rel.NewSchema(rel.Column{Name: "k", Kind: rel.KindInt}))
	r := storage.NewTable("r", rel.NewSchema(rel.Column{Name: "k", Kind: rel.KindInt}))
	for i := 0; i < 20000; i++ {
		l.MustAppend(rel.Row{rel.Int(int64(i % 64))})
		r.MustAppend(rel.Row{rel.Int(int64(i % 64))})
	}
	root := &plan.JoinNode{
		Kind:      plan.HashJoin,
		Left:      &plan.ScanNode{Alias: "l", Table: "l", Access: plan.SeqScan, OutSchema: l.Schema()},
		Right:     &plan.ScanNode{Alias: "r", Table: "r", Access: plan.SeqScan, OutSchema: r.Schema()},
		Preds:     []sql.JoinPred{{Left: sql.ColRef{Table: "l", Column: "k"}, Right: sql.ColRef{Table: "r", Column: "k"}}},
		OutSchema: l.Schema().Concat(r.Schema()),
	}
	binder := func(name string) (*storage.Table, error) {
		if name == "l" {
			return l, nil
		}
		return r, nil
	}
	return &plan.Plan{Root: root, Query: &sql.Query{CountStar: true}}, binder
}

// TestRunCtxCancelMidExecution: cancelling while the Volcano loop is
// pulling a ~6M-row join aborts promptly with ctx.Err() instead of
// draining to completion.
func TestRunCtxCancelMidExecution(t *testing.T) {
	p, binder := bigJoin()
	cat := skelCatalog(t, 1, 10) // table resolution goes through Binder
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunCtx(ctx, p, cat, Options{CountOnly: true, Binder: binder})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-execution cancel: got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel latency not bounded: %v", elapsed)
	}
}

// TestBatchCtxAbortDoesNotPoisonCache: whatever instant a cancellation
// lands at inside a batch — several plans validated in turn through one
// handle — the batch aborts with the context's error, and the shared
// cache afterwards contains only complete, correct sub-results: verified
// by re-running the full batch over the post-abort cache and comparing
// against an uncached run.
func TestBatchCtxAbortDoesNotPoisonCache(t *testing.T) {
	cat := skelCatalog(t, 3, 600)
	q := skelQuery()
	plans := skelPlans(cat, q)

	refCounts, err := countBatch(context.Background(), plans, cat.Table, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	for delay := time.Duration(0); delay < 300*time.Microsecond; delay += 50 * time.Microsecond {
		cache := NewSkeletonCache(0, 0)
		ctx, cancel := context.WithCancel(context.Background())
		if delay == 0 {
			cancel() // abort before the first step
		} else {
			go func(d time.Duration) {
				time.Sleep(d)
				cancel()
			}(delay)
		}
		counts, aerr := countBatch(ctx, plans, cat.Table, cache, 0)
		cancel()
		// The abort may or may not have landed before completion; when it
		// did, the error must be the context's and nothing is answered.
		if aerr != nil && (!errors.Is(aerr, context.Canceled) || counts != nil) {
			t.Fatalf("delay %v: got %v (%d counts), want a bare context.Canceled or nil", delay, aerr, len(counts))
		}
		if delay == 0 && (aerr == nil || cache.Len() != 0) {
			t.Fatalf("pre-cancelled batch: err %v, %d entries cached", aerr, cache.Len())
		}

		counts, rerr := countBatch(context.Background(), plans, cat.Table, cache, 0)
		if rerr != nil {
			t.Fatalf("delay %v: re-run over post-abort cache: %v", delay, rerr)
		}
		for i := range plans {
			if !reflect.DeepEqual(counts[i], refCounts[i]) {
				t.Fatalf("delay %v plan %d: counts diverge after abort", delay, i)
			}
		}
	}
}

// TestCountSkeletonCtxCancelled: a single-plan run aborts between
// nodes with ctx.Err() and leaves the cache usable.
func TestCountSkeletonCtxCancelled(t *testing.T) {
	cat := skelCatalog(t, 2, 400)
	q := skelQuery()
	p := skelPlans(cat, q)[0]
	cache := NewSkeletonCache(0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := countSkeletonCfg(ctx, p, cat.Table, cache, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled CountSkeletonCfg: got %v, want context.Canceled", err)
	}
	want, err := countSkeleton(p, cat.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := countSkeleton(p, cat.Table, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-abort cache produced different counts")
	}
}

// TestErrUnsupportedPlanTaxonomy: a plan shape outside the count-only
// engine's contract fails its slot with an error matching the one
// sentinel, ErrUnsupportedPlan.
func TestErrUnsupportedPlanTaxonomy(t *testing.T) {
	cat := skelCatalog(t, 1, 50)
	// An aggregate node is outside the count-only engine's contract.
	q := skelQuery()
	agg := &plan.AggregateNode{Child: skelPlans(cat, q)[0].Root}
	_, err := countSkeleton(&plan.Plan{Root: agg, Query: q}, cat.Table, nil)
	if !errors.Is(err, ErrUnsupportedPlan) {
		t.Fatalf("aggregate through count skeleton: %v", err)
	}
}
