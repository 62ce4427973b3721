package executor

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"reopt/internal/catalog"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
)

// buildCatalog creates two random tables with an indexed join column.
func buildCatalog(t testing.TB, seed int64, n1, n2 int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	rng := rand.New(rand.NewSource(seed))
	l := storage.NewTable("l", rel.NewSchema(
		rel.Column{Name: "k", Kind: rel.KindInt},
		rel.Column{Name: "v", Kind: rel.KindInt},
	))
	for i := 0; i < n1; i++ {
		l.MustAppend(rel.Row{rel.Int(rng.Int63n(20)), rel.Int(rng.Int63n(100))})
	}
	r := storage.NewTable("r", rel.NewSchema(
		rel.Column{Name: "k", Kind: rel.KindInt},
		rel.Column{Name: "w", Kind: rel.KindInt},
	))
	for i := 0; i < n2; i++ {
		r.MustAppend(rel.Row{rel.Int(rng.Int63n(20)), rel.Int(rng.Int63n(100))})
	}
	if _, err := r.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	cat.MustAddTable(l)
	cat.MustAddTable(r)
	return cat
}

func scanNode(cat *catalog.Catalog, name string, filters ...sql.Selection) *plan.ScanNode {
	t, err := cat.Table(name)
	if err != nil {
		panic(err)
	}
	return &plan.ScanNode{
		Alias: name, Table: name, Filters: filters,
		Access: plan.SeqScan, OutSchema: t.Schema(),
	}
}

func joinNode(kind plan.JoinKind, l, r plan.Node, preds ...sql.JoinPred) *plan.JoinNode {
	return &plan.JoinNode{
		Kind: kind, Left: l, Right: r, Preds: preds,
		OutSchema: l.Schema().Concat(r.Schema()),
	}
}

var kPred = sql.JoinPred{
	Left:  sql.ColRef{Table: "l", Column: "k"},
	Right: sql.ColRef{Table: "r", Column: "k"},
}

// TestJoinOperatorsAgree: all four physical join operators must produce
// identical multisets of output rows.
func TestJoinOperatorsAgree(t *testing.T) {
	cat := buildCatalog(t, 11, 500, 300)
	q := &sql.Query{}
	counts := map[plan.JoinKind][]string{}
	for _, kind := range []plan.JoinKind{
		plan.NestedLoop, plan.HashJoin, plan.MergeJoin, plan.IndexNestedLoop,
	} {
		inner := scanNode(cat, "r")
		if kind == plan.IndexNestedLoop {
			inner.Access = plan.IndexScan
			inner.IndexColumn = "k"
		}
		p := &plan.Plan{Root: joinNode(kind, scanNode(cat, "l"), inner, kPred), Query: q}
		res, err := Run(p, cat, Options{})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		rows := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			rows[i] = r.String()
		}
		sort.Strings(rows)
		counts[kind] = rows
	}
	want := counts[plan.NestedLoop]
	if len(want) == 0 {
		t.Fatal("join produced no rows; test data broken")
	}
	for kind, got := range counts {
		if len(got) != len(want) {
			t.Fatalf("%v: %d rows, want %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v row %d: %s != %s", kind, i, got[i], want[i])
			}
		}
	}
}

// Property: join operators agree across random seeds and sizes.
func TestJoinOperatorsAgreeProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n1 := int(sz%50) + 10
		n2 := int(sz%37) + 10
		cat := buildCatalog(t, seed, n1, n2)
		q := &sql.Query{}
		var counts []int64
		for _, kind := range []plan.JoinKind{plan.NestedLoop, plan.HashJoin, plan.MergeJoin} {
			p := &plan.Plan{
				Root:  joinNode(kind, scanNode(cat, "l"), scanNode(cat, "r"), kPred),
				Query: q,
			}
			res, err := Run(p, cat, Options{CountOnly: true})
			if err != nil {
				return false
			}
			counts = append(counts, res.Count)
		}
		return counts[0] == counts[1] && counts[1] == counts[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFiltersAtScan(t *testing.T) {
	cat := buildCatalog(t, 5, 1000, 10)
	filt := sql.Selection{
		Col: sql.ColRef{Table: "l", Column: "k"}, Op: sql.OpEq, Value: rel.Int(7),
	}
	p := &plan.Plan{Root: scanNode(cat, "l", filt), Query: &sql.Query{}}
	res, err := Run(p, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := cat.Table("l")
	want := 0
	for rid := range tab.NumRows() {
		row := tab.Row(rid)
		if row[0].AsInt() == 7 {
			want++
		}
	}
	if int(res.Count) != want {
		t.Errorf("filtered count %d, want %d", res.Count, want)
	}
	for _, row := range res.Rows {
		if row[0].AsInt() != 7 {
			t.Errorf("row %v fails filter", row)
		}
	}
}

func TestIndexScanEqualsSeqScan(t *testing.T) {
	cat := buildCatalog(t, 6, 2000, 10)
	filt := sql.Selection{
		Col: sql.ColRef{Table: "l", Column: "k"}, Op: sql.OpEq, Value: rel.Int(3),
	}
	seq := &plan.Plan{Root: scanNode(cat, "l", filt), Query: &sql.Query{}}
	idxScan := scanNode(cat, "l", filt)
	idxScan.Access = plan.IndexScan
	idxScan.IndexColumn = "k"
	idx := &plan.Plan{Root: idxScan, Query: &sql.Query{}}

	a, err := Run(seq, cat, Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(idx, cat, Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != b.Count {
		t.Errorf("seq %d vs index %d", a.Count, b.Count)
	}
	if b.Counters.RandPages == 0 {
		t.Error("index scan should count random pages")
	}
	if a.Counters.SeqPages == 0 {
		t.Error("seq scan should count sequential pages")
	}
}

func TestCountStar(t *testing.T) {
	cat := buildCatalog(t, 7, 100, 10)
	q := &sql.Query{CountStar: true}
	p := &plan.Plan{Root: scanNode(cat, "l"), Query: q}
	res, err := Run(p, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 100 {
		t.Errorf("count: %d", res.Count)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 100 {
		t.Errorf("count star row: %v", res.Rows)
	}
}

func TestProjection(t *testing.T) {
	cat := buildCatalog(t, 8, 10, 10)
	q := &sql.Query{Projection: []sql.ColRef{{Table: "l", Column: "v"}}}
	p := &plan.Plan{Root: scanNode(cat, "l"), Query: q}
	res, err := Run(p, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 || len(res.Rows[0]) != 1 {
		t.Errorf("projection shape wrong: %v", res.Rows[0])
	}
	// Unknown projection column errors.
	bad := &sql.Query{Projection: []sql.ColRef{{Table: "l", Column: "zzz"}}}
	if _, err := Run(&plan.Plan{Root: scanNode(cat, "l"), Query: bad}, cat, Options{}); err == nil {
		t.Error("bad projection should error")
	}
}

func TestNullsNeverJoin(t *testing.T) {
	cat := catalog.New()
	l := storage.NewTable("l", rel.NewSchema(rel.Column{Name: "k", Kind: rel.KindInt}))
	r := storage.NewTable("r", rel.NewSchema(rel.Column{Name: "k", Kind: rel.KindInt}))
	l.MustAppend(rel.Row{rel.Null})
	l.MustAppend(rel.Row{rel.Int(1)})
	r.MustAppend(rel.Row{rel.Null})
	r.MustAppend(rel.Row{rel.Int(1)})
	cat.MustAddTable(l)
	cat.MustAddTable(r)
	for _, kind := range []plan.JoinKind{plan.NestedLoop, plan.HashJoin, plan.MergeJoin} {
		p := &plan.Plan{
			Root:  joinNode(kind, scanNode(cat, "l"), scanNode(cat, "r"), kPred),
			Query: &sql.Query{},
		}
		res, err := Run(p, cat, Options{CountOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 1 {
			t.Errorf("%v: %d rows, want 1 (NULLs must not join)", kind, res.Count)
		}
	}
}

func TestNodeRowsInstrumentation(t *testing.T) {
	cat := buildCatalog(t, 9, 200, 100)
	l := scanNode(cat, "l")
	r := scanNode(cat, "r")
	j := joinNode(plan.HashJoin, l, r, kPred)
	p := &plan.Plan{Root: j, Query: &sql.Query{}}
	res, err := Run(p, cat, Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeRows[l] != 200 || res.NodeRows[r] != 100 {
		t.Errorf("scan node counts: %d, %d", res.NodeRows[l], res.NodeRows[r])
	}
	if res.NodeRows[j] != res.Count {
		t.Errorf("join node count %d vs result %d", res.NodeRows[j], res.Count)
	}
}

// TestBinderSubstitution checks the sampling path: binding a different
// table for a scan (e.g. a sample) works and degraded index scans fall
// back to sequential.
func TestBinderSubstitution(t *testing.T) {
	cat := buildCatalog(t, 10, 1000, 10)
	base, _ := cat.Table("l")
	sample := base.Sample("l_s", 0.5, 3)
	idxScan := scanNode(cat, "l")
	idxScan.Access = plan.IndexScan
	idxScan.IndexColumn = "k"
	idxScan.Filters = []sql.Selection{{
		Col: sql.ColRef{Table: "l", Column: "k"}, Op: sql.OpEq, Value: rel.Int(3),
	}}
	p := &plan.Plan{Root: idxScan, Query: &sql.Query{}}
	res, err := Run(p, cat, Options{
		CountOnly: true,
		Binder: func(name string) (*storage.Table, error) {
			if name == "l" {
				return sample, nil // sample has no index: must degrade
			}
			return cat.Table(name)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for rid := range sample.NumRows() {
		row := sample.Row(rid)
		if row[0].AsInt() == 3 {
			want++
		}
	}
	if int(res.Count) != want {
		t.Errorf("degraded scan count %d, want %d", res.Count, want)
	}
}

func TestMultiPredicateJoin(t *testing.T) {
	cat := buildCatalog(t, 12, 300, 300)
	pred2 := sql.JoinPred{
		Left:  sql.ColRef{Table: "l", Column: "v"},
		Right: sql.ColRef{Table: "r", Column: "w"},
	}
	var counts []int64
	for _, kind := range []plan.JoinKind{plan.NestedLoop, plan.HashJoin, plan.MergeJoin} {
		p := &plan.Plan{
			Root:  joinNode(kind, scanNode(cat, "l"), scanNode(cat, "r"), kPred, pred2),
			Query: &sql.Query{},
		}
		res, err := Run(p, cat, Options{CountOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Count)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("multi-predicate join counts differ: %v", counts)
	}
}

func TestSwappedPredicateSides(t *testing.T) {
	cat := buildCatalog(t, 13, 100, 100)
	swapped := sql.JoinPred{
		Left:  sql.ColRef{Table: "r", Column: "k"},
		Right: sql.ColRef{Table: "l", Column: "k"},
	}
	a, err := Run(&plan.Plan{
		Root:  joinNode(plan.HashJoin, scanNode(cat, "l"), scanNode(cat, "r"), kPred),
		Query: &sql.Query{},
	}, cat, Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(&plan.Plan{
		Root:  joinNode(plan.HashJoin, scanNode(cat, "l"), scanNode(cat, "r"), swapped),
		Query: &sql.Query{},
	}, cat, Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != b.Count {
		t.Errorf("swapped predicate changed result: %d vs %d", a.Count, b.Count)
	}
}
