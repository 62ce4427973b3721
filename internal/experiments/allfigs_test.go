package experiments

import (
	"context"
	"testing"
)

// TestAllExperimentsRun executes every registered experiment once on a
// tiny configuration, asserting each produces a well-formed table. This
// is the integration test for the whole reproduction pipeline: every
// figure's code path (database generation, calibration, optimization,
// re-optimization, execution, measurement) runs end to end.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	cfg := Config{
		TPCHCustomers:   200,
		OTTRowsPerValue: 20,
		DSStoreSales:    3000,
		Instances:       1,
		OTT4Count:       2,
		OTT5Count:       2,
		Seed:            23,
	}
	r := NewRunner(context.Background(), cfg)
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(r)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tab.ID != e.ID {
				t.Errorf("table id %q != experiment id %q", tab.ID, e.ID)
			}
			if len(tab.Headers) == 0 {
				t.Errorf("%s: no headers", e.ID)
			}
			// Per-round figures may legitimately be empty at tiny scale.
			if len(tab.Rows) == 0 && e.ID != "fig14" && e.ID != "fig15" {
				t.Errorf("%s: no rows", e.ID)
			}
			if out := tab.Render(); len(out) == 0 {
				t.Errorf("%s: empty rendering", e.ID)
			}
			if out := tab.CSV(); len(out) == 0 {
				t.Errorf("%s: empty csv", e.ID)
			}
		})
	}
}
