package core

import "testing"

// TestCrossRoundCacheGammaIdentical: re-optimization with the
// cross-round validation cache must be observably identical to running
// every round's skeleton from scratch — same Γ (byte for byte), same
// rounds, same final plan. The cache may only change *when* counts are
// computed, never their values.
func TestCrossRoundCacheGammaIdentical(t *testing.T) {
	r, qs := ottSetup(t)
	for qi, q := range qs {
		r.Opts.Validator = nil // cached, batched fast path (production default)
		cached, err := r.Reoptimize(q)
		if err != nil {
			t.Fatalf("query %d cached: %v", qi, err)
		}

		// Ignore the cache and the batch: every round re-executes every
		// plan's skeleton from scratch, one at a time.
		r.Opts.Validator = sequentialEstimator(r.Cat)
		uncached, err := r.Reoptimize(q)
		if err != nil {
			t.Fatalf("query %d uncached: %v", qi, err)
		}

		if got, want := cached.Gamma.Snapshot(), uncached.Gamma.Snapshot(); got != want {
			t.Errorf("query %d: Γ diverged with cache\ncached:   %s\nuncached: %s", qi, got, want)
		}
		if cached.NumPlans != uncached.NumPlans || len(cached.Rounds) != len(uncached.Rounds) {
			t.Errorf("query %d: trace diverged: %d plans/%d rounds vs %d plans/%d rounds",
				qi, cached.NumPlans, len(cached.Rounds), uncached.NumPlans, len(uncached.Rounds))
		}
		if cached.Final.Fingerprint() != uncached.Final.Fingerprint() {
			t.Errorf("query %d: final plan diverged with cache", qi)
		}
		for ri := range cached.Rounds {
			if ri < len(uncached.Rounds) && cached.Rounds[ri].GammaAdded != uncached.Rounds[ri].GammaAdded {
				t.Errorf("query %d round %d: GammaAdded %d != %d",
					qi, ri, cached.Rounds[ri].GammaAdded, uncached.Rounds[ri].GammaAdded)
			}
		}
	}
}
