package reopt_test

// The shared validation cache under parametrized traffic and across
// catalogs: what one query validated serves another only where both
// compute the same count over the same samples.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"reopt"
)

// rangeQueries builds one 3-way join over the OTT tables per constant,
// varying only the r1.a range bound.
func rangeQueries(t testing.TB, cat *reopt.Catalog, ks []int) []*reopt.Query {
	t.Helper()
	qs := make([]*reopt.Query, len(ks))
	for i, k := range ks {
		src := fmt.Sprintf(
			"SELECT COUNT(*) FROM r1, r2, r3 WHERE r1.a < %d AND r2.a = 1 AND r1.b = r2.b AND r2.b = r3.b", k)
		q, err := reopt.Parse(src, cat)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

// TestParametrizedWorkloadEquivalence: Zipf-skewed parametrized traffic
// (zipfQueries: few templates, skewed constants, so many instances repeat
// one an earlier instance validated) through one shared cache — at
// parallelism {1, 2, NumCPU}, cold and warm — equals its sequential
// replay: the same queries
// re-optimized one at a time, in arrival order, through a cache of their
// own.
func TestParametrizedWorkloadEquivalence(t *testing.T) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{
		Seed: 1, NumTables: 4, RowsPerValue: 5,
		Domains: []int{400, 360, 320, 28}, SampleRatio: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := zipfQueries(t, cat, 32)
	ctx := context.Background()

	replay, err := reopt.Open(cat, reopt.WithSharedCache(512))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][4]string, len(queries))
	for i, q := range queries {
		res, err := replay.Reoptimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultKey(res)
	}
	if hits, _ := replay.CacheStats(); hits == 0 {
		t.Fatal("the replay never hit its cache: the workload repeats nothing")
	}

	for _, par := range []int{1, 2, runtime.NumCPU()} {
		s, err := reopt.Open(cat, reopt.WithSharedCache(512))
		if err != nil {
			t.Fatal(err)
		}
		for _, state := range []string{"cold", "warm"} {
			got, err := s.ReoptimizeWorkload(ctx, queries, par)
			if err != nil {
				t.Fatalf("par=%d %s: %v", par, state, err)
			}
			for i := range queries {
				if resultKey(got[i]) != want[i] {
					t.Errorf("par=%d %s query %d: diverged from the sequential replay", par, state, i)
				}
			}
		}
	}
}

// TestTemplateSharingWorkloadEquivalence: the deprecated
// WithTemplateSharing option is a no-op — a parametrized workload through
// a shared cache with it set lands on the final plans and Gamma snapshots
// of a serial, uncached run without it, at parallelism {1, 2, NumCPU},
// cold and warm.
func TestTemplateSharingWorkloadEquivalence(t *testing.T) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 3, RowsPerValue: 20})
	if err != nil {
		t.Fatal(err)
	}
	queries := rangeQueries(t, cat, []int{40, 30, 25, 20, 15, 10})
	ctx := context.Background()

	ref, err := reopt.Open(cat, reopt.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ReoptimizeWorkload(ctx, queries, 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 2, runtime.NumCPU()} {
		s, err := reopt.Open(cat,
			reopt.WithWorkers(2),
			reopt.WithSharedCache(512),
			reopt.WithTemplateSharing(),
		)
		if err != nil {
			t.Fatal(err)
		}
		for _, state := range []string{"cold", "warm"} {
			got, err := s.ReoptimizeWorkload(ctx, queries, par)
			if err != nil {
				t.Fatalf("par=%d %s: %v", par, state, err)
			}
			for i := range queries {
				if got[i].Final.Fingerprint() != want[i].Final.Fingerprint() {
					t.Errorf("par=%d %s query %d: final plan diverged", par, state, i)
				}
				if got[i].Gamma.Snapshot() != want[i].Gamma.Snapshot() {
					t.Errorf("par=%d %s query %d: Gamma diverged", par, state, i)
				}
			}
		}
	}
}

// TestTemplateSharingSchedulerEquivalence: the same no-op contract with
// the deprecated WithWorkloadScheduler set as well: the two together
// change nothing either, and the scheduler stats stay zero.
func TestTemplateSharingSchedulerEquivalence(t *testing.T) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 5, RowsPerValue: 20})
	if err != nil {
		t.Fatal(err)
	}
	queries := rangeQueries(t, cat, []int{40, 28, 22, 16})
	ctx := context.Background()

	ref, err := reopt.Open(cat, reopt.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ReoptimizeWorkload(ctx, queries, 1)
	if err != nil {
		t.Fatal(err)
	}

	s, err := reopt.Open(cat,
		reopt.WithWorkers(2),
		reopt.WithSharedCache(512),
		reopt.WithWorkloadScheduler(0),
		reopt.WithTemplateSharing(),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReoptimizeWorkload(ctx, queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if got[i].Final.Fingerprint() != want[i].Final.Fingerprint() {
			t.Errorf("query %d: final plan diverged with the options set", i)
		}
		if got[i].Gamma.Snapshot() != want[i].Gamma.Snapshot() {
			t.Errorf("query %d: Gamma diverged with the options set", i)
		}
	}
	wantNoSchedulerStats(t, s)
}

// TestSharedCacheAcrossCatalogs: one WorkloadCache shared through
// WithCache by two sessions over two catalogs whose tables have the same
// names but different data. With calls alternating between the
// sessions, every Validate and Reoptimize result equals that session's
// own uncached run: sub-results are namespaced by each
// catalog's sample epoch, so one catalog's counts can never serve the
// other's.
func TestSharedCacheAcrossCatalogs(t *testing.T) {
	ctx := context.Background()
	shared := reopt.NewWorkloadCache(0)
	ks := []int{40, 30, 25, 20}
	type side struct {
		s, ref  *reopt.Session
		queries []*reopt.Query
	}
	var sides []side
	for _, seed := range []int64{3, 4} {
		cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: seed, RowsPerValue: 20})
		if err != nil {
			t.Fatal(err)
		}
		s, err := reopt.Open(cat, reopt.WithCache(shared))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := reopt.Open(cat)
		if err != nil {
			t.Fatal(err)
		}
		sides = append(sides, side{s, ref, rangeQueries(t, cat, ks)})
	}
	differ := false
	for pass := 0; pass < 2; pass++ {
		for i := range ks {
			var deltas [2]*reopt.SamplingEstimate
			for si, sd := range sides {
				label := fmt.Sprintf("pass %d catalog %d query %d", pass, si, i)
				q := sd.queries[i]
				got, err := sd.s.Reoptimize(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sd.ref.Reoptimize(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if resultKey(got) != resultKey(want) {
					t.Fatalf("%s: Reoptimize through the shared cache diverged from the uncached run", label)
				}
				plans := []*reopt.Plan{got.Final}
				if p, err := sd.s.Optimize(q); err == nil {
					plans = append(plans, p)
				} else {
					t.Fatal(err)
				}
				gotEst, err := sd.s.Validate(ctx, plans...)
				if err != nil {
					t.Fatal(err)
				}
				wantEst, err := sd.ref.Validate(ctx, plans...)
				if err != nil {
					t.Fatal(err)
				}
				for pi := range plans {
					if !reflect.DeepEqual(gotEst[pi].Sets, wantEst[pi].Sets) {
						t.Fatalf("%s plan %d: Validate through the shared cache diverged from the uncached run", label, pi)
					}
				}
				deltas[si] = wantEst[1]
			}
			differ = differ || !reflect.DeepEqual(deltas[0].Sets, deltas[1].Sets)
		}
	}
	if !differ {
		t.Fatal("the two catalogs validate alike: the test cannot tell their namespaces apart")
	}
	if hits, _ := shared.Stats(); hits == 0 {
		t.Error("the shared cache served no sub-result")
	}
}
