package sampling

import (
	"math"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/stats"
	"reopt/internal/storage"
)

// uniformCatalog builds two 20k-row tables joined on a 100-value key,
// with samples. The true join size is known in closed form.
func uniformCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, name := range []string{"a", "b"} {
		tab := storage.NewTable(name, rel.NewSchema(
			rel.Column{Name: "k", Kind: rel.KindInt},
		))
		for i := 0; i < 20000; i++ {
			tab.MustAppend(rel.Row{rel.Int(int64(i % 100))})
		}
		cat.MustAddTable(tab)
	}
	if err := cat.AnalyzeAll(stats.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	cat.BuildSamples(5)
	return cat
}

func joinPlan(cat *catalog.Catalog, q *sql.Query) *plan.Plan {
	ta, _ := cat.Table("a")
	tb, _ := cat.Table("b")
	l := &plan.ScanNode{Alias: "a", Table: "a", Access: plan.SeqScan, OutSchema: ta.Schema()}
	r := &plan.ScanNode{Alias: "b", Table: "b", Access: plan.SeqScan, OutSchema: tb.Schema()}
	j := &plan.JoinNode{
		Kind: plan.HashJoin, Left: l, Right: r,
		Preds: []sql.JoinPred{{
			Left:  sql.ColRef{Table: "a", Column: "k"},
			Right: sql.ColRef{Table: "b", Column: "k"},
		}},
		OutSchema: l.OutSchema.Concat(r.OutSchema),
	}
	return &plan.Plan{Root: j, Query: q}
}

func TestEstimatorUnbiasedOnUniformJoin(t *testing.T) {
	cat := uniformCatalog(t)
	q, err := sql.Parse("SELECT COUNT(*) FROM a, b WHERE a.k = b.k", cat)
	if err != nil {
		t.Fatal(err)
	}
	p := joinPlan(cat, q)
	est, err := estimateOne(p, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := setRows(t, est, 0b11).Rows
	// True size: per key 200*200 matches x 100 keys = 4e6.
	want := 4e6
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("join estimate %v, want within 15%% of %v", got, want)
	}
	// Leaf estimates scale back to the table sizes.
	for i, a := range []string{"a", "b"} {
		leaf := setRows(t, est, 1<<i).Rows
		if math.Abs(leaf-20000)/20000 > 0.1 {
			t.Errorf("leaf %s estimate %v, want ~20000", a, leaf)
		}
	}
}

func TestEstimateRecordsEverySubtree(t *testing.T) {
	cat := uniformCatalog(t)
	q, err := sql.Parse("SELECT COUNT(*) FROM a, b WHERE a.k = b.k", cat)
	if err != nil {
		t.Fatal(err)
	}
	est, err := estimateOne(joinPlan(cat, q), cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Sets) != 3 { // a, b, a+b
		t.Errorf("delta entries: %d, want 3", len(est.Sets))
	}
	for _, mask := range []uint64{0b01, 0b10, 0b11} {
		setRows(t, est, mask)
	}
	if est.Duration <= 0 {
		t.Error("duration should be positive")
	}
}

func TestZeroCountFloor(t *testing.T) {
	// A filter no row satisfies: the estimate must be the resolution
	// floor (0.5 x scale), never a hard zero.
	cat := uniformCatalog(t)
	q, err := sql.Parse("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.k = 12345", cat)
	if err != nil {
		t.Fatal(err)
	}
	p := joinPlan(cat, q)
	// Attach the impossible filter to the left scan.
	left := p.Root.(*plan.JoinNode).Left.(*plan.ScanNode)
	left.Filters = q.SelectionsOn("a")
	est, err := estimateOne(p, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	leafSet := setRows(t, est, 0b01)
	leaf := leafSet.Rows
	if leaf <= 0 {
		t.Errorf("zero-observation estimate must stay positive, got %v", leaf)
	}
	base, _ := cat.Table("a")
	s, _ := cat.Sample("a")
	scale := float64(base.NumRows()) / float64(s.NumRows())
	if math.Abs(leaf-0.5*scale) > 1e-9 {
		t.Errorf("floor: got %v, want %v", leaf, 0.5*scale)
	}
	if leafSet.SampleRows != 0 {
		t.Error("raw sample count should be zero")
	}
}

// TestEstimateIgnoresPhysicalChoices: an index nested-loop join over an
// index scan validates like any other tree — samples carry no indexes
// the plan could name, and physical choices never reach a count.
func TestEstimateIgnoresPhysicalChoices(t *testing.T) {
	cat := uniformCatalog(t)
	q, err := sql.Parse("SELECT COUNT(*) FROM a, b WHERE a.k = b.k", cat)
	if err != nil {
		t.Fatal(err)
	}
	p := joinPlan(cat, q)
	p.Root.(*plan.JoinNode).Kind = plan.IndexNestedLoop
	inner := p.Root.(*plan.JoinNode).Right.(*plan.ScanNode)
	inner.Access = plan.IndexScan
	inner.IndexColumn = "k"
	if _, err := estimateOne(p, cat, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateRequiresSamples(t *testing.T) {
	cat := catalog.New()
	tab := storage.NewTable("a", rel.NewSchema(rel.Column{Name: "k", Kind: rel.KindInt}))
	tab.MustAppend(rel.Row{rel.Int(1)})
	cat.MustAddTable(tab)
	q := &sql.Query{Tables: []sql.TableRef{{Name: "a", Alias: "a"}}, CountStar: true}
	p := &plan.Plan{
		Root:  &plan.ScanNode{Alias: "a", Table: "a", Access: plan.SeqScan, OutSchema: tab.Schema()},
		Query: q,
	}
	if _, err := estimateOne(p, cat, nil); err == nil {
		t.Error("expected error without samples")
	}
}

func TestConfidenceWeightMonotone(t *testing.T) {
	prev := 0.0
	for _, k := range []int64{0, 1, 5, 20, 100, 10000} {
		w := ConfidenceWeight(k)
		if w <= prev || w > 1 {
			t.Errorf("weight(%d) = %v not in (prev, 1]", k, w)
		}
		prev = w
	}
	if w := ConfidenceWeight(10000); w < 0.99 {
		t.Errorf("large samples should be near-fully trusted: %v", w)
	}
}

// TestConfidenceWeightBoundary pins the k=0 behaviour the conservative
// blend relies on: an unwitnessed set keeps a small non-zero weight
// (the Laplace-style +1 — the sampled floor estimate still carries
// information) that stays strictly below 1/2, so core.blend favors the
// optimizer's history-based estimate until the sample has actually
// witnessed the set.
func TestConfidenceWeightBoundary(t *testing.T) {
	w0 := ConfidenceWeight(0)
	if w0 <= 0 || w0 >= 0.5 {
		t.Errorf("weight(0) = %v, want in (0, 0.5) so history dominates", w0)
	}
	if w := ConfidenceWeight(1 << 40); w >= 1 {
		t.Errorf("weight must stay below 1, got %v", w)
	}
}

// TestEstimateAgainstTrueCardinalities executes the skeleton on the base
// tables and compares with the sampled estimate across a selective
// filter, exercising the σ + join path end to end.
func TestEstimateAgainstTrueCardinalities(t *testing.T) {
	cat := uniformCatalog(t)
	q, err := sql.Parse("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.k <= 9", cat)
	if err != nil {
		t.Fatal(err)
	}
	p := joinPlan(cat, q)
	p.Root.(*plan.JoinNode).Left.(*plan.ScanNode).Filters = q.SelectionsOn("a")
	est, err := estimateOne(p, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := executor.Run(p, cat, executor.Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	got := setRows(t, est, 0b11).Rows
	want := float64(truth.Count)
	if math.Abs(got-want)/want > 0.2 {
		t.Errorf("estimate %v vs true %v", got, want)
	}
}

// setRows returns est's entry for the relation set mask.
func setRows(t *testing.T, est *Estimate, mask uint64) optimizer.SetRows {
	t.Helper()
	for _, s := range est.Sets {
		if s.Mask == mask {
			return s
		}
	}
	t.Fatalf("no estimate for set %#b", mask)
	return optimizer.SetRows{}
}
