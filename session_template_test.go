package reopt_test

// Session-level equivalence for template sharing: the same parametrized
// workload re-optimized with and without WithTemplateSharing must land
// on identical final plans and identical validated statistics, at
// several parallelism and shard settings, cold and warm.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"reopt"
)

// templateWorkload builds one template's instances over the OTT tables:
// a 3-way join whose only varying part is the r1.a range constant.
// Descending constants make the first (loosest) instance the template
// seed every narrower instance can refine from.
func templateWorkload(t testing.TB, cat *reopt.Catalog, ks []int) []*reopt.Query {
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

// TestTemplateSharingWorkloadEquivalence: end-to-end byte-identity —
// final plan fingerprints and Gamma snapshots with sharing on must
// equal the sharing-off run for every query, across parallelism
// {1,2,NumCPU} x shards {1,2}, on a cold and a warm shared cache.
func TestTemplateSharingWorkloadEquivalence(t *testing.T) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 3, RowsPerValue: 20})
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{40, 30, 25, 20, 15, 10}
	queries := templateWorkload(t, cat, ks)
	ctx := context.Background()

	// Reference: sharing off, no cache, serial.
	ref, err := reopt.Open(cat, reopt.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ReoptimizeWorkload(ctx, queries, 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 2, runtime.NumCPU()} {
		for _, shards := range []int{1, 2} {
			s, err := reopt.Open(cat,
				reopt.WithWorkers(2),
				reopt.WithSampleShards(shards),
				reopt.WithSharedCache(512),
				reopt.WithTemplateSharing(),
			)
			if err != nil {
				t.Fatal(err)
			}
			for _, state := range []string{"cold", "warm"} {
				got, err := s.ReoptimizeWorkload(ctx, queries, par)
				if err != nil {
					t.Fatalf("par=%d shards=%d %s: %v", par, shards, state, err)
				}
				for i := range queries {
					if got[i].Final.Fingerprint() != want[i].Final.Fingerprint() {
						t.Errorf("par=%d shards=%d %s query %d: final plan diverged", par, shards, state, i)
					}
					if got[i].Gamma.Snapshot() != want[i].Gamma.Snapshot() {
						t.Errorf("par=%d shards=%d %s query %d: Gamma diverged", par, shards, state, i)
					}
				}
			}
		}
	}
}

// TestTemplateSharingReusesScans: with sharing on, a serial descending
// workload must actually exercise the template index — the narrower
// instances refine from the loosest one's cached scan.
func TestTemplateSharingReusesScans(t *testing.T) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 3, RowsPerValue: 20})
	if err != nil {
		t.Fatal(err)
	}
	queries := templateWorkload(t, cat, []int{40, 30, 20, 10})
	s, err := reopt.Open(cat,
		reopt.WithWorkers(2), reopt.WithSharedCache(512), reopt.WithTemplateSharing())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReoptimizeWorkload(context.Background(), queries, 1); err != nil {
		t.Fatal(err)
	}
	hits, _ := s.TemplateStats()
	if hits == 0 {
		t.Fatal("descending parametrized workload recorded no template-index hits")
	}
}

// TestTemplateSharingSchedulerEquivalence: the workload scheduler path
// (coalesced waves + adaptive gather window) with template sharing must
// agree with the serial sharing-off reference too.
func TestTemplateSharingSchedulerEquivalence(t *testing.T) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 5, RowsPerValue: 20})
	if err != nil {
		t.Fatal(err)
	}
	queries := templateWorkload(t, cat, []int{40, 28, 22, 16})
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
		reopt.WithWorkloadScheduler(0), // adaptive gather window
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
			t.Errorf("query %d: final plan diverged under scheduler+templates", i)
		}
		if got[i].Gamma.Snapshot() != want[i].Gamma.Snapshot() {
			t.Errorf("query %d: Gamma diverged under scheduler+templates", i)
		}
	}
}

// TestSharedCacheAcrossCatalogs: one WorkloadCache shared through
// WithCache by two sessions over two catalogs whose tables have the same
// names but different data. With template sharing on and calls
// alternating between the sessions, every Validate and Reoptimize result
// equals that session's own uncached run: sub-results, hash tables and
// template entries are namespaced by each catalog's sample epoch, so
// one catalog's counts can never serve the other's.
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
		s, err := reopt.Open(cat, reopt.WithCache(shared), reopt.WithTemplateSharing())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := reopt.Open(cat)
		if err != nil {
			t.Fatal(err)
		}
		sides = append(sides, side{s, ref, templateWorkload(t, cat, ks)})
	}
	differ := false
	for pass := 0; pass < 2; pass++ {
		for i := range ks {
			var deltas [2]map[string]float64
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
					if !reflect.DeepEqual(gotEst[pi].Delta, wantEst[pi].Delta) ||
						!reflect.DeepEqual(gotEst[pi].SampleRows, wantEst[pi].SampleRows) {
						t.Fatalf("%s plan %d: Validate through the shared cache diverged from the uncached run", label, pi)
					}
				}
				deltas[si] = wantEst[1].Delta
			}
			differ = differ || !reflect.DeepEqual(deltas[0], deltas[1])
		}
	}
	if !differ {
		t.Fatal("the two catalogs validate alike: the test cannot tell their namespaces apart")
	}
	if hits, _ := shared.Stats(); hits == 0 {
		t.Error("the shared cache served no sub-result")
	}
	if hits, _ := shared.TemplateStats(); hits == 0 {
		t.Error("the template index served no scan")
	}
}
