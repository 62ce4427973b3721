package sql

import (
	"strings"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/rel"
	"reopt/internal/storage"
)

func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	a := storage.NewTable("a", rel.NewSchema(
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "x", Kind: rel.KindInt},
		rel.Column{Name: "name", Kind: rel.KindString},
	))
	b := storage.NewTable("b", rel.NewSchema(
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "y", Kind: rel.KindInt},
	))
	cat.MustAddTable(a)
	cat.MustAddTable(b)
	return cat
}

func TestParseBasicSelect(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(`SELECT a.id, name FROM a WHERE x = 5`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 1 || q.Tables[0].Name != "a" {
		t.Fatalf("tables: %+v", q.Tables)
	}
	if len(q.Projection) != 2 || q.Projection[1].Table != "a" {
		t.Fatalf("projection: %+v", q.Projection)
	}
	if len(q.Selections) != 1 || q.Selections[0].Op != OpEq ||
		q.Selections[0].Value.AsInt() != 5 {
		t.Fatalf("selections: %+v", q.Selections)
	}
}

func TestParseJoinAndAliases(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(`SELECT COUNT(*) FROM a AS t1, b t2 WHERE t1.id = t2.id AND t2.y > 3`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !q.CountStar {
		t.Error("COUNT(*) not detected")
	}
	if len(q.Joins) != 1 {
		t.Fatalf("joins: %+v", q.Joins)
	}
	j := q.Joins[0]
	if j.Left.Table != "t1" || j.Right.Table != "t2" {
		t.Errorf("join sides: %+v", j)
	}
	if len(q.Selections) != 1 || q.Selections[0].Op != OpGt {
		t.Errorf("selections: %+v", q.Selections)
	}
}

func TestParseBetweenAndStrings(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(`SELECT * FROM a WHERE x BETWEEN 1 AND 10 AND name = 'it''s'`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Selections) != 2 {
		t.Fatalf("selections: %+v", q.Selections)
	}
	if q.Selections[0].Op != OpBetween || q.Selections[0].Value2.AsInt() != 10 {
		t.Errorf("between: %+v", q.Selections[0])
	}
	if q.Selections[1].Value.AsString() != "it's" {
		t.Errorf("string literal: %v", q.Selections[1].Value)
	}
}

func TestParseNegativeAndFloatLiterals(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(`SELECT * FROM a WHERE x >= -5 AND x < 2.5`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.Selections[0].Value.AsInt() != -5 {
		t.Errorf("negative literal: %v", q.Selections[0].Value)
	}
	if q.Selections[1].Value.AsFloat() != 2.5 {
		t.Errorf("float literal: %v", q.Selections[1].Value)
	}
}

func TestParseErrors(t *testing.T) {
	cat := testCatalog(t)
	cases := []string{
		`SELECT * FROM nosuch`,
		`SELECT * FROM a WHERE nosuch = 1`,
		`SELECT * FROM a, b WHERE id = 1`,          // ambiguous
		`SELECT * FROM a AS t, b AS t`,             // duplicate alias
		`SELECT * FROM a WHERE a.x < b.y`,          // non-equi join
		`SELECT * FROM a WHERE a.x = a.id`,         // same-table equality
		`SELECT * FROM a WHERE x = `,               // missing literal
		`SELECT * FROM a WHERE 'lit' = x`,          // literal on left
		`FROM a`,                                   // missing SELECT
		`SELECT * FROM a trailing garbage ( x = 1`, // trailing input
		`SELECT * FROM a WHERE name = 'unterminated`,
	}
	for _, src := range cases {
		if _, err := Parse(src, cat); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	cat := testCatalog(t)
	src := `SELECT COUNT(*) FROM a AS t1, b AS t2 WHERE t1.x = 3 AND t1.id = t2.id`
	q, err := Parse(src, cat)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String(), cat)
	if err != nil {
		t.Fatalf("reparse of %q: %v", q.String(), err)
	}
	if q.Fingerprint() != q2.Fingerprint() {
		t.Errorf("fingerprint changed after round trip:\n%s\n%s",
			q.Fingerprint(), q2.Fingerprint())
	}
}

func TestJoinPredCanonical(t *testing.T) {
	j1 := JoinPred{Left: ColRef{"t2", "b"}, Right: ColRef{"t1", "a"}}.Canonical()
	j2 := JoinPred{Left: ColRef{"t1", "a"}, Right: ColRef{"t2", "b"}}.Canonical()
	if j1 != j2 {
		t.Errorf("canonical forms differ: %v vs %v", j1, j2)
	}
}

func TestEvalSelection(t *testing.T) {
	cases := []struct {
		v    rel.Value
		f    Selection
		want bool
	}{
		{rel.Int(5), Selection{Op: OpEq, Value: rel.Int(5)}, true},
		{rel.Int(5), Selection{Op: OpNe, Value: rel.Int(5)}, false},
		{rel.Int(5), Selection{Op: OpLt, Value: rel.Int(6)}, true},
		{rel.Int(5), Selection{Op: OpLe, Value: rel.Int(5)}, true},
		{rel.Int(5), Selection{Op: OpGt, Value: rel.Int(5)}, false},
		{rel.Int(5), Selection{Op: OpGe, Value: rel.Int(5)}, true},
		{rel.Int(5), Selection{Op: OpBetween, Value: rel.Int(1), Value2: rel.Int(9)}, true},
		{rel.Int(10), Selection{Op: OpBetween, Value: rel.Int(1), Value2: rel.Int(9)}, false},
		{rel.Null, Selection{Op: OpEq, Value: rel.Null}, false},
		{rel.Null, Selection{Op: OpNe, Value: rel.Int(1)}, false}, // NULL never matches
	}
	for i, c := range cases {
		if got := EvalSelection(c.v, c.f); got != c.want {
			t.Errorf("case %d: EvalSelection(%v, %v %v) = %v", i, c.v, c.f.Op, c.f.Value, got)
		}
	}
}

func TestSelectionsOn(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(`SELECT COUNT(*) FROM a AS t1, b AS t2
		WHERE t1.x = 1 AND t2.y = 2 AND t1.id = t2.id`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.SelectionsOn("t1"); len(got) != 1 || got[0].Col.Column != "x" {
		t.Errorf("selections on t1: %+v", got)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	cat := testCatalog(t)
	if _, err := Parse(`select count(*) from a where x between 1 and 2`, cat); err != nil {
		t.Errorf("lowercase keywords: %v", err)
	}
}

func TestFingerprintOrderInsensitive(t *testing.T) {
	cat := testCatalog(t)
	q1 := MustParse(`SELECT COUNT(*) FROM a, b WHERE a.x = 1 AND a.id = b.id`, cat)
	q2 := MustParse(`SELECT COUNT(*) FROM a, b WHERE b.id = a.id AND a.x = 1`, cat)
	if q1.Fingerprint() != q2.Fingerprint() {
		t.Error("fingerprints should ignore predicate order and join side order")
	}
}

func TestCompareOpString(t *testing.T) {
	for op, want := range map[CompareOp]string{
		OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
		OpBetween: "BETWEEN",
	} {
		if op.String() != want {
			t.Errorf("%v != %s", op, want)
		}
	}
	if !strings.Contains(CompareOp(99).String(), "CompareOp") {
		t.Error("unknown op should render diagnostically")
	}
}
