package sampling

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"reopt/internal/executor"
)

// TestShardedEstimatesIdentical: the equivalence contract of the
// sharded validation stack — Delta and SampleRows byte-identical to the
// per-plan sequential ground truth at every (shard count × cache mode)
// combination, cold and warm. Sharding may only change how the work
// partitions, never a single count.
func TestShardedEstimatesIdentical(t *testing.T) {
	cat, plans := batchSetup(t, 4)
	ctx := context.Background()

	want := make([]*Estimate, len(plans))
	for i, p := range plans {
		e, err := EstimatePlan(p, cat)
		if err != nil {
			t.Fatalf("plan %d sequential: %v", i, err)
		}
		want[i] = e
	}

	for _, shards := range []int{1, 2, 3, runtime.NumCPU()} {
		caches := map[string]*WorkloadCache{
			"nil":      nil,
			"perrun":   perRun(),
			"workload": NewWorkloadCache(0),
		}
		for name, cache := range caches {
			mode := fmt.Sprintf("shards=%d cache=%s", shards, name)
			cfg := ValidateConfig{Shards: shards}
			got, err := EstimatePlansCfg(ctx, plans, cat, Prepare(nil, cache), cfg)
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			for i := range plans {
				compareEstimates(t, "shard", i, mode, got[i], want[i])
			}
			if cache == nil {
				continue
			}
			got, err = EstimatePlansCfg(ctx, plans, cat, Prepare(nil, cache), cfg)
			if err != nil {
				t.Fatalf("%s warm: %v", mode, err)
			}
			for i := range plans {
				compareEstimates(t, "shard", i, mode+" warm", got[i], want[i])
			}
		}
	}
}

// TestShardedCacheInterchangeable: cache keys must not mention the
// shard count, so entries written at one setting are served verbatim at
// any other — a session that changes WithSampleShards between queries
// keeps its whole cache.
func TestShardedCacheInterchangeable(t *testing.T) {
	cat, plans := batchSetup(t, 3)
	ctx := context.Background()

	for _, dir := range []struct{ warm, read int }{{1, 4}, {4, 1}, {2, 3}} {
		wc := NewWorkloadCache(0)
		cold, err := EstimatePlansCfg(ctx, plans, cat, Prepare(nil, wc), ValidateConfig{Shards: dir.warm})
		if err != nil {
			t.Fatal(err)
		}
		size := wc.Len()
		hits0, _ := wc.Stats()
		got, err := EstimatePlansCfg(ctx, plans, cat, Prepare(nil, wc), ValidateConfig{Shards: dir.read})
		if err != nil {
			t.Fatal(err)
		}
		mode := fmt.Sprintf("warm@%d read@%d", dir.warm, dir.read)
		for i := range plans {
			compareEstimates(t, "xshard", i, mode, got[i], cold[i])
		}
		if wc.Len() != size {
			t.Errorf("%s: reading at a different shard count grew the cache: %d -> %d",
				mode, size, wc.Len())
		}
		if hits1, _ := wc.Stats(); hits1 <= hits0 {
			t.Errorf("%s: no cache hits across shard counts — keys depend on sharding", mode)
		}
	}
}

// TestShardedMemoryBudgetVerdictIndependent: whether a plan breaches a
// memory budget is a property of the plan and the budget, never of the
// shard layout — per-shard charges sum to the monolithic total, so the
// verdict (and, when it passes, every count) matches shards=1 exactly.
func TestShardedMemoryBudgetVerdictIndependent(t *testing.T) {
	cat, plans := batchSetup(t, 2)
	ctx := context.Background()

	for _, budget := range []int64{1, 100, 1000, 10_000, 1 << 40} {
		base, baseErr := EstimatePlansCfg(ctx, plans, cat, nil,
			ValidateConfig{Shards: 1, MemBudget: budget})
		for _, shards := range []int{2, 3, runtime.NumCPU()} {
			got, err := EstimatePlansCfg(ctx, plans, cat, nil,
				ValidateConfig{Shards: shards, MemBudget: budget})
			if errors.Is(baseErr, executor.ErrMemoryBudget) != errors.Is(err, executor.ErrMemoryBudget) {
				t.Fatalf("budget %d shards %d: verdict %v, monolithic verdict %v",
					budget, shards, err, baseErr)
			}
			if (err == nil) != (baseErr == nil) {
				t.Fatalf("budget %d shards %d: err %v, monolithic err %v", budget, shards, err, baseErr)
			}
			if err == nil {
				for i := range plans {
					compareEstimates(t, "budget", i, fmt.Sprintf("budget=%d shards=%d", budget, shards),
						got[i], base[i])
				}
			}
		}
	}
	// Sanity: the tightest budget actually breaches, so the loop above
	// exercised both verdicts.
	if _, err := EstimatePlansCfg(ctx, plans, cat, nil,
		ValidateConfig{Shards: 2, MemBudget: 1}); !errors.Is(err, executor.ErrMemoryBudget) {
		t.Fatalf("budget 1: err = %v, want ErrMemoryBudget", err)
	}
}
