package sql

import (
	"fmt"
	"strings"
	"testing"

	"reopt/internal/rel"
	"reopt/internal/storage"
)

// FuzzParse feeds arbitrary text to the parser over a catalog with the
// tables of the parser tests and of the OTT and TPC-H shapes. Whatever
// the input, Parse must not panic and must return exactly one of a query
// and an error; a query must render (Query.String) to text that parses
// back to the same fingerprint and the same query graph: the same bits,
// the same filters on each FROM position and the same canonical join
// predicates in the same order.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		// Parser tests.
		`SELECT a.id, name FROM a WHERE x = 5`,
		`SELECT COUNT(*) FROM a AS t1, b t2 WHERE t1.id = t2.id AND t2.y > 3`,
		`SELECT * FROM a WHERE x BETWEEN 1 AND 10 AND name = 'it''s'`,
		`SELECT * FROM a WHERE x >= -5 AND x < 2.5`,
		`select count(*) from a where x between 1 and 2`,
		`SELECT COUNT(*) FROM a, b WHERE b.id = a.id AND a.x = 1`,
		`SELECT COUNT(*) FROM a AS q0, b AS q1 WHERE q0.id = q1.id AND q0.x <> 7 GROUP BY q0.x ORDER BY q0.x DESC LIMIT 3`,
		`SELECT * FROM a, b WHERE id = 1`,
		`SELECT * FROM a AS t, b AS t`,
		`SELECT * FROM a WHERE a.x < b.y`,
		`SELECT * FROM a WHERE 'lit' = x`,
		`SELECT * FROM a trailing garbage ( x = 1`,
		`SELECT * FROM a WHERE name = 'unterminated`,
		// OTT shape.
		`SELECT COUNT(*) FROM r1 AS t1, r2 AS t2, r3 AS t3 WHERE t1.a = 0 AND t2.a = 1 AND t3.a = 0 AND t1.b = t2.b AND t2.b = t3.b`,
		// TPC-H shapes.
		`SELECT COUNT(*) FROM customer, orders, lineitem
			WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
			AND c_mktsegment = 'BUILDING' AND o_orderdate < 1200 AND l_shipdate > 1200`,
		`SELECT COUNT(*) FROM orders, lineitem, nation AS n1, nation AS n2, customer
			WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey AND c_nationkey = n1.n_nationkey
			AND n1.n_regionkey = n2.n_regionkey AND n2.n_name = 'FRANCE' AND o_orderdate BETWEEN 100 AND 465
			GROUP BY n1.n_name ORDER BY n1.n_name LIMIT 5`,
	} {
		f.Add(src)
	}
	cat := testCatalog(f)
	for _, tbl := range []struct {
		name string
		cols []rel.Column
	}{
		{"r1", []rel.Column{{Name: "a", Kind: rel.KindInt}, {Name: "b", Kind: rel.KindInt}}},
		{"r2", []rel.Column{{Name: "a", Kind: rel.KindInt}, {Name: "b", Kind: rel.KindInt}}},
		{"r3", []rel.Column{{Name: "a", Kind: rel.KindInt}, {Name: "b", Kind: rel.KindInt}}},
		{"customer", []rel.Column{{Name: "c_custkey", Kind: rel.KindInt}, {Name: "c_nationkey", Kind: rel.KindInt}, {Name: "c_mktsegment", Kind: rel.KindString}}},
		{"orders", []rel.Column{{Name: "o_orderkey", Kind: rel.KindInt}, {Name: "o_custkey", Kind: rel.KindInt}, {Name: "o_orderdate", Kind: rel.KindInt}}},
		{"lineitem", []rel.Column{{Name: "l_orderkey", Kind: rel.KindInt}, {Name: "l_shipdate", Kind: rel.KindInt}, {Name: "l_discount", Kind: rel.KindFloat}}},
		{"nation", []rel.Column{{Name: "n_nationkey", Kind: rel.KindInt}, {Name: "n_regionkey", Kind: rel.KindInt}, {Name: "n_name", Kind: rel.KindString}}},
	} {
		cat.MustAddTable(storage.NewTable(tbl.name, rel.NewSchema(tbl.cols...)))
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src, cat)
		if (q == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of a query and an error", src, q, err)
		}
		if err != nil {
			return
		}
		q2, err := Parse(q.String(), cat)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which does not parse: %v", src, q.String(), err)
		}
		if q.Fingerprint() != q2.Fingerprint() {
			t.Fatalf("Parse(%q): fingerprint drifts through %q:\n %s\n %s", src, q.String(), q.Fingerprint(), q2.Fingerprint())
		}
		if g, g2 := graphString(NewGraph(q)), graphString(NewGraph(q2)); g != g2 {
			t.Fatalf("Parse(%q): query graph drifts through %q:\n %s\n %s", src, q.String(), g, g2)
		}
	})
}

// graphString renders what a query graph says: each FROM position's
// alias, bit and filters, then each join predicate as written, its
// canonical key and its endpoints' bits, in order.
func graphString(g *Graph) string {
	var b strings.Builder
	for i, r := range g.Rels {
		fmt.Fprintf(&b, "%s=%#x[", g.Query.Tables[i].Alias, r.Bit)
		for _, f := range r.Filters {
			b.WriteString(f.String() + ";")
		}
		b.WriteString("] ")
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "{%s|%s|%#x|%#x} ", e.Pred, e.Key, e.L, e.R)
	}
	return b.String()
}
