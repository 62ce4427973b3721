package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// smallConfig keeps test runs fast.
func smallConfig() Config {
	return Config{
		TPCHCustomers:   300,
		OTTRowsPerValue: 25,
		DSStoreSales:    6000,
		Instances:       1,
		OTT4Count:       3,
		OTT5Count:       3,
		Seed:            17,
	}
}

func TestFig3(t *testing.T) {
	r := NewRunner(context.Background(), smallConfig())
	tab, err := r.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	// Spot-check Theorem 3's envelope on the emitted rows.
	for _, row := range tab.Rows[1:] { // skip N=1
		sn := parseF(t, row[1])
		lo := parseF(t, row[2])
		hi := parseF(t, row[3])
		if sn < lo || sn > hi {
			t.Errorf("N=%s: S_N=%v outside [%v, %v]", row[0], sn, lo, hi)
		}
	}
}

func TestEx2EstimatesCoincide(t *testing.T) {
	r := NewRunner(context.Background(), smallConfig())
	tab, err := r.Ex2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tab.Rows))
	}
	estNonEmpty := parseF(t, tab.Rows[0][3])
	estEmpty := parseF(t, tab.Rows[1][3])
	if estNonEmpty != estEmpty {
		t.Errorf("2-D histogram estimates should coincide: %v vs %v", estNonEmpty, estEmpty)
	}
	actNonEmpty := parseF(t, tab.Rows[0][4])
	actEmpty := parseF(t, tab.Rows[1][4])
	if actEmpty != 0 || actNonEmpty == 0 {
		t.Errorf("actual rows should be (nonzero, 0); got (%v, %v)", actNonEmpty, actEmpty)
	}
}

func TestAppB(t *testing.T) {
	r := NewRunner(context.Background(), smallConfig())
	tab, err := r.AppB()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 {
		t.Fatalf("too few rows: %d", len(tab.Rows))
	}
}

// TestOTTFiguresShape runs the OTT experiments on a tiny database and
// verifies the headline shape: for queries where the original plan was
// slow, the re-optimized plan collapses.
func TestOTTFiguresShape(t *testing.T) {
	r := NewRunner(context.Background(), smallConfig())
	tab, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2*r.cfg.OTT4Count {
		t.Fatalf("want %d rows, got %d", 2*r.cfg.OTT4Count, len(tab.Rows))
	}
	for _, row := range tab.Rows {
		orig := parseF(t, row[2])
		re := parseF(t, row[3])
		if orig > 50 && re > orig {
			t.Errorf("query %s (cal=%s): reopt %vms worse than original %vms",
				row[0], row[1], re, orig)
		}
	}
}

func TestFig16PlanCountsPlausible(t *testing.T) {
	r := NewRunner(context.Background(), smallConfig())
	tab, err := r.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		for _, cell := range row[2:] {
			v := parseF(t, cell)
			if v < 1 || v > 10 {
				t.Errorf("implausible plan count %v in row %v", v, row)
			}
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig3", "fig4", "fig10", "fig19", "fig20", "ex2", "appB"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, err := ByID("fig3"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("expected error for unknown id")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "test",
		Headers: []string{"a", "bb"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("xyz", "w")
	out := tab.Render()
	if !strings.Contains(out, "== x: test ==") || !strings.Contains(out, "xyz") {
		t.Errorf("render missing content:\n%s", out)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Errorf("bad csv:\n%s", csv)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
