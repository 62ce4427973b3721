package plan

import (
	"slices"
	"strings"
	"testing"

	"reopt/internal/rel"
	"reopt/internal/sql"
)

func scan(alias string) *ScanNode {
	return &ScanNode{
		Alias: alias, Table: alias,
		OutSchema: rel.NewSchema(rel.Column{Table: alias, Name: "b", Kind: rel.KindInt}),
	}
}

func join(kind JoinKind, l, r Node) *JoinNode {
	las, ras := l.Aliases(), r.Aliases()
	return &JoinNode{
		Kind: kind, Left: l, Right: r,
		Preds: []sql.JoinPred{{
			Left:  sql.ColRef{Table: las[len(las)-1], Column: "b"},
			Right: sql.ColRef{Table: ras[0], Column: "b"},
		}},
		OutSchema: l.Schema().Concat(r.Schema()),
	}
}

// Builds the paper's Figure 1 trees:
// T1  = ((A ⋈ B) ⋈ C) ⋈ D          (left-deep)
// T1' = (C ⋈ (A ⋈ B)) ⋈ D          (local transformation of T1)
// T2  = (A ⋈ B) ⋈ (C ⋈ D)          (bushy; global vs T1)
// T2' = (C ⋈ D) ⋈ (A ⋈ B)          (local transformation of T2)
func figure1() (t1, t1p, t2, t2p *Plan) {
	ab := func() Node { return join(HashJoin, scan("A"), scan("B")) }
	cd := func() Node { return join(HashJoin, scan("C"), scan("D")) }
	q := &sql.Query{Tables: []sql.TableRef{{Name: "A", Alias: "A"}, {Name: "B", Alias: "B"}, {Name: "C", Alias: "C"}, {Name: "D", Alias: "D"}}}
	t1 = &Plan{Query: q, Root: join(HashJoin, join(HashJoin, ab(), scan("C")), scan("D"))}
	t1p = &Plan{Query: q, Root: join(HashJoin, join(HashJoin, scan("C"), ab()), scan("D"))}
	t2 = &Plan{Query: q, Root: join(HashJoin, ab(), cd())}
	t2p = &Plan{Query: q, Root: join(HashJoin, cd(), ab())}
	return
}

// localRef and coveredRef spell Definitions 1 and 2 over alias strings,
// as the paper writes them; Classify and Covered compare masks.
func localRef(a, b *Plan) bool {
	au, bu := unorderedJoins(a), unorderedJoins(b)
	if len(au) != len(bu) {
		return false
	}
	for k := range au {
		if !bu[k] {
			return false
		}
	}
	return true
}

func coveredRef(p *Plan, set ...*Plan) bool {
	union := map[string]bool{}
	for _, s := range set {
		for k := range unorderedJoins(s) {
			union[k] = true
		}
	}
	for k := range unorderedJoins(p) {
		if !union[k] {
			return false
		}
	}
	return true
}

// unorderedJoins is tree(P) over alias strings: the canonical alias set
// of every join node.
func unorderedJoins(p *Plan) map[string]bool {
	out := map[string]bool{}
	Walk(p.Root, func(n Node) {
		if j, ok := n.(*JoinNode); ok {
			out[CanonicalSet(j.Aliases())] = true
		}
	})
	return out
}

// validatedBy is the union of the plans' join sets, as the round loop
// accumulates it.
func validatedBy(set ...*Plan) (masks []uint64) {
	for _, s := range set {
		masks = append(masks, s.JoinSets()...)
	}
	return masks
}

// TestEncoding: tree(P) is encoded as the relation sets of P's joins,
// masks over the FROM list. T1 = {A⋈B, A⋈B⋈C, A⋈B⋈C⋈D} and the paper's
// T2 = {A⋈B, C⋈D, A⋈B⋈C⋈D}.
func TestEncoding(t *testing.T) {
	t1, _, t2, _ := figure1()
	if got, want := t1.JoinSets(), []uint64{0b0011, 0b0111, 0b1111}; !slices.Equal(got, want) {
		t.Errorf("T1 join sets %b, want %b", got, want)
	}
	if got, want := t2.JoinSets(), []uint64{0b0011, 0b1100, 0b1111}; !slices.Equal(got, want) {
		t.Errorf("T2 join sets %b, want %b", got, want)
	}
}

func TestLocalVsGlobalTransformations(t *testing.T) {
	t1, t1p, t2, t2p := figure1()
	plans := []*Plan{t1, t1p, t2, t2p}
	for i, a := range plans {
		for j, b := range plans {
			want := localRef(a, b)
			if got := slices.Equal(a.JoinSets(), b.JoinSets()); got != want {
				t.Errorf("plans %d,%d: join-set masks equal = %v, Definition 1 over aliases = %v", i, j, got, want)
			}
			if want != (i/2 == j/2) {
				t.Errorf("plans %d,%d: local = %v; T1,T1' and T2,T2' are the local pairs", i, j, want)
			}
		}
	}
}

func TestCoverage(t *testing.T) {
	t1, t1p, t2, t2p := figure1()
	plans := []*Plan{t1, t1p, t2, t2p}
	for i, p := range plans {
		for _, set := range [][]*Plan{nil, {t1}, {t2}, {t1, t2}, {t1p, t2p}} {
			if got, want := Covered(p, validatedBy(set...)), coveredRef(p, set...); got != want {
				t.Errorf("plan %d vs %d plans: Covered = %v, Definition 2 over aliases = %v", i, len(set), got, want)
			}
		}
	}
	// T1' is covered by {T1}: same unordered joins.
	if !Covered(t1p, validatedBy(t1)) {
		t.Error("T1' should be covered by {T1}")
	}
	// T2 contains C⋈D, absent from T1 — the paper's Example 1.
	if Covered(t2, validatedBy(t1)) {
		t.Error("T2 must not be covered by {T1} (C⋈D unobserved)")
	}
	// Union of T1 and T2 covers both.
	if !Covered(t2, validatedBy(t1, t2)) {
		t.Error("a plan is covered by any set containing it")
	}
}

func TestClassify(t *testing.T) {
	t1, t1p, t2, _ := figure1()
	if k := Classify(nil, t1); k != Global {
		t.Errorf("first plan: %v", k)
	}
	if k := Classify(t1, t1); k != SamePlan {
		t.Errorf("same plan: %v", k)
	}
	if k := Classify(t1, t1p); k != Local {
		t.Errorf("local: %v", k)
	}
	if k := Classify(t1, t2); k != Global {
		t.Errorf("global: %v", k)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a := &Plan{Root: join(HashJoin, scan("A"), scan("B"))}
	b := &Plan{Root: join(MergeJoin, scan("A"), scan("B"))}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("operator change must change the fingerprint")
	}
	c := &Plan{Root: join(HashJoin, scan("B"), scan("A"))}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("side swap must change the fingerprint")
	}
}

func TestMultiCharAliasEncodingNoCollision(t *testing.T) {
	// "AB"+"C" must differ from "A"+"BC".
	x := join(HashJoin, scan("AB"), scan("C"))
	y := join(HashJoin, scan("A"), scan("BC"))
	if CanonicalSet(x.Aliases()) == CanonicalSet(y.Aliases()) {
		t.Error("alias encoding collides")
	}
}

func TestExplainContainsOperators(t *testing.T) {
	t1, _, _, _ := figure1()
	out := t1.Explain()
	for _, want := range []string{"HashJoin", "SeqScan", "rows="} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestWalkVisitsAllNodes(t *testing.T) {
	t1, _, _, _ := figure1()
	count := 0
	Walk(t1.Root, func(Node) { count++ })
	if count != 7 { // 4 scans + 3 joins
		t.Errorf("walk visited %d nodes, want 7", count)
	}
}

func TestAggregateNode(t *testing.T) {
	child := join(HashJoin, scan("A"), scan("B"))
	agg := &AggregateNode{
		GroupBy:   []sql.ColRef{{Table: "A", Column: "b"}},
		Child:     child,
		OutSchema: rel.NewSchema(rel.Column{Table: "A", Name: "b", Kind: rel.KindInt}),
		Rows:      3,
		CostVal:   10,
	}
	p := &Plan{Root: agg, Query: &sql.Query{Tables: []sql.TableRef{{Name: "A", Alias: "A"}, {Name: "B", Alias: "B"}}}}
	if got := agg.Aliases(); len(got) != 2 {
		t.Errorf("aggregate aliases: %v", got)
	}
	if !strings.Contains(agg.Fingerprint(), "HashAggregate") {
		t.Errorf("fingerprint: %s", agg.Fingerprint())
	}
	if !strings.Contains(p.Explain(), "HashAggregate by A.b") {
		t.Errorf("explain: %s", p.Explain())
	}
	count := 0
	Walk(agg, func(Node) { count++ })
	if count != 4 { // agg + join + 2 scans
		t.Errorf("walk visited %d nodes", count)
	}
	// The join tree ignores the aggregate.
	if sets := p.JoinSets(); !slices.Equal(sets, []uint64{0b11}) {
		t.Errorf("tree joins: %b", sets)
	}
}

func TestTransformKindString(t *testing.T) {
	if SamePlan.String() != "same" || Local.String() != "local" || Global.String() != "global" {
		t.Error("transform kind names wrong")
	}
}

func TestJoinKindAndAccessKindStrings(t *testing.T) {
	if NestedLoop.String() != "NestLoop" || IndexNestedLoop.String() != "IndexNestLoop" ||
		HashJoin.String() != "HashJoin" || MergeJoin.String() != "MergeJoin" {
		t.Error("join kind names wrong")
	}
	if SeqScan.String() != "SeqScan" || IndexScan.String() != "IndexScan" {
		t.Error("access kind names wrong")
	}
}
