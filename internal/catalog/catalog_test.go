package catalog

import (
	"testing"

	"reopt/internal/rel"
	"reopt/internal/stats"
	"reopt/internal/storage"
)

func newTestTable(name string, rows int) *storage.Table {
	t := storage.NewTable(name, rel.NewSchema(
		rel.Column{Name: "k", Kind: rel.KindInt},
	))
	for i := 0; i < rows; i++ {
		t.MustAppend(rel.Row{rel.Int(int64(i % 7))})
	}
	return t
}

func TestAddAndResolve(t *testing.T) {
	c := New()
	if err := c.AddTable(newTestTable("t", 10)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(newTestTable("t", 10)); err == nil {
		t.Error("duplicate table should error")
	}
	if _, err := c.Table("t"); err != nil {
		t.Error(err)
	}
	if _, err := c.Table("nope"); err == nil {
		t.Error("unknown table should error")
	}
	if names := c.TableNames(); len(names) != 1 || names[0] != "t" {
		t.Errorf("names: %v", names)
	}
}

func TestAnalyzeAndStats(t *testing.T) {
	c := New()
	c.MustAddTable(newTestTable("t", 100))
	if c.Stats("t") != nil {
		t.Error("stats should be nil before ANALYZE")
	}
	if c.ColumnStats("t", "k") != nil {
		t.Error("column stats should be nil before ANALYZE")
	}
	if err := c.AnalyzeAll(stats.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	cs := c.ColumnStats("t", "k")
	if cs == nil || cs.NumDistinct != 7 {
		t.Errorf("column stats: %+v", cs)
	}
	if c.ColumnStats("t", "nope") != nil {
		t.Error("unknown column stats should be nil")
	}
	if err := c.Analyze("nope", stats.AnalyzeOptions{}); err == nil {
		t.Error("analyzing unknown table should error")
	}
}

func TestSamples(t *testing.T) {
	c := New()
	c.MustAddTable(newTestTable("big", 50000))
	c.MustAddTable(newTestTable("tiny", 20))
	if c.HasSamples() {
		t.Error("no samples yet")
	}
	if _, err := c.Sample("big"); err == nil {
		t.Error("sample before BuildSamples should error")
	}
	c.SetSampleRatio(0.05)
	c.BuildSamples(1)
	if !c.HasSamples() {
		t.Error("samples should exist")
	}
	big, err := c.Sample("big")
	if err != nil {
		t.Fatal(err)
	}
	// Effective ratio for 50000 rows with floor 600: max(0.05, 0.012) = 0.05.
	if big.NumRows() < 2000 || big.NumRows() > 3000 {
		t.Errorf("big sample: %d rows", big.NumRows())
	}
	// Tiny tables get fully sampled under the floor.
	tiny, err := c.Sample("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if tiny.NumRows() != 20 {
		t.Errorf("tiny sample: %d rows, want full copy", tiny.NumRows())
	}
}

func TestEffectiveSampleRatio(t *testing.T) {
	c := New()
	c.SetSampleRatio(0.05)
	c.SetMinSampleRows(100)
	if r := c.EffectiveSampleRatio(10000); r != 0.05 {
		t.Errorf("big table ratio: %v", r)
	}
	if r := c.EffectiveSampleRatio(200); r != 0.5 {
		t.Errorf("small table ratio: %v", r)
	}
	if r := c.EffectiveSampleRatio(50); r != 1 {
		t.Errorf("tiny table ratio: %v", r)
	}
	c.SetMinSampleRows(0)
	if r := c.EffectiveSampleRatio(50); r != 0.05 {
		t.Errorf("floor disabled: %v", r)
	}
}

func TestSampleRatioValidation(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid ratio")
		}
	}()
	c.SetSampleRatio(0)
}

// TestBuildSamplesDeterministic: the same seed draws the same rows, at
// the default ratio, at the 600-row floor and at ratio 1, where the
// sample shares its table's columns and holds no bytes of its own.
func TestBuildSamplesDeterministic(t *testing.T) {
	for _, tc := range []struct {
		rows  int
		ratio float64
	}{{100000, DefaultSampleRatio}, {10000, DefaultSampleRatio}, {10000, 1}} {
		mk := func() *Catalog {
			c := New()
			c.SetSampleRatio(tc.ratio)
			c.MustAddTable(newTestTable("t", tc.rows))
			c.BuildSamples(99)
			return c
		}
		ca, cb := mk(), mk()
		a, _ := ca.Sample("t")
		b, _ := cb.Sample("t")
		if a.NumRows() != b.NumRows() {
			t.Fatalf("%d rows at ratio %v: samples differ: %d vs %d", tc.rows, tc.ratio, a.NumRows(), b.NumRows())
		}
		for i := range a.NumRows() {
			if a.Row(i)[0] != b.Row(i)[0] {
				t.Fatalf("%d rows at ratio %v: sample row %d differs: %v vs %v", tc.rows, tc.ratio, i, a.Row(i), b.Row(i))
			}
		}
		if full := ca.EffectiveSampleRatio(tc.rows) == 1; (a.NumRows() == tc.rows) != full || (ca.Bytes().Samples == 0) != full {
			t.Errorf("%d rows at ratio %v: %d sampled, %+v", tc.rows, tc.ratio, a.NumRows(), ca.Bytes())
		}
	}
}

func TestSampleEpoch(t *testing.T) {
	a := New()
	a.MustAddTable(newTestTable("t", 100))
	if a.SampleEpoch() != 0 {
		t.Error("epoch should be zero before BuildSamples")
	}
	a.BuildSamples(1)
	e1 := a.SampleEpoch()
	if e1 == 0 {
		t.Fatal("BuildSamples must assign a non-zero epoch")
	}
	// Rebuilding — even with the same seed — starts a new epoch, so
	// caches keyed by epoch can never serve pre-refresh counts.
	a.BuildSamples(1)
	if a.SampleEpoch() == e1 {
		t.Error("same-seed rebuild must still advance the epoch")
	}
	// Epochs are process-unique: a different catalog never shares one.
	b := New()
	b.MustAddTable(newTestTable("t", 100))
	b.BuildSamples(1)
	if b.SampleEpoch() == a.SampleEpoch() || b.SampleEpoch() == e1 {
		t.Error("distinct catalogs must have distinct epochs")
	}
}
