package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"reopt/internal/optimizer"
)

// TestConservativePinned pins Conservative-mode results — every query's
// final Γ snapshot and final fingerprint — to the values the string-keyed
// blend (one estimator per Δ key) produced before blending was routed
// through the per-query planner's statistics-only cardinality by mask.
func TestConservativePinned(t *testing.T) {
	want := map[string]string{
		"ott_small":     "aebff3a8a9fc1dc1",
		"ott_large":     "2abba81f6af532e8",
		"template_zipf": "d32cdf6312db04da",
		"tpch_batch":    "981113a9a8601286",
	}
	for _, w := range benchShapedWorkloads(t) {
		r := New(optimizer.New(w.cat, optimizer.DefaultConfig()), w.cat)
		r.Opts.Conservative = true
		r.Opts.Workers = 1
		h := sha256.New()
		for i, q := range w.queries {
			res, err := r.Reoptimize(q)
			if err != nil {
				t.Fatalf("%s query %d: %v", w.name, i, err)
			}
			fmt.Fprintf(h, "%s\n%s\n", res.Gamma.Snapshot(), res.Final.Fingerprint())
		}
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != want[w.name] {
			t.Errorf("%s: conservative results hash %s, pinned %s", w.name, got, want[w.name])
		}
	}
}
