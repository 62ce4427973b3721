package plan

import (
	"testing"

	"reopt/internal/rel"
	"reopt/internal/sql"
)

// explainGoldenPlan exercises every line shape of Explain: a scan under
// its own name, an aliased scan, an index scan, filters, a join on two
// predicates, a cross join and a two-column aggregate.
func explainGoldenPlan() *Plan {
	col := func(alias, name string) *rel.Schema {
		return rel.NewSchema(rel.Column{Table: alias, Name: name, Kind: rel.KindInt})
	}
	a := &ScanNode{Alias: "a", Table: "a", OutSchema: col("a", "k"), Rows: 1000, CostVal: 25}
	b := &ScanNode{
		Alias: "b2", Table: "b", Access: IndexScan, IndexColumn: "k",
		Filters: []sql.Selection{
			{Col: sql.ColRef{Table: "b2", Column: "k"}, Op: sql.OpEq, Value: rel.Int(7)},
			{Col: sql.ColRef{Table: "b2", Column: "s"}, Op: sql.OpBetween, Value: rel.String_("x"), Value2: rel.String_("y")},
		},
		OutSchema: col("b2", "k"), Rows: 3.25, CostVal: 8.0625,
	}
	c := &ScanNode{
		Alias: "c", Table: "cust",
		Filters:   []sql.Selection{{Col: sql.ColRef{Table: "c", Column: "v"}, Op: sql.OpLt, Value: rel.Float(0.5)}},
		OutSchema: col("c", "v"), Rows: 0.04, CostVal: 1234.56789,
	}
	ab := &JoinNode{
		Kind: IndexNestedLoop, Left: a, Right: b,
		Preds: []sql.JoinPred{
			{Left: sql.ColRef{Table: "a", Column: "k"}, Right: sql.ColRef{Table: "b2", Column: "k"}},
			{Left: sql.ColRef{Table: "b2", Column: "j"}, Right: sql.ColRef{Table: "a", Column: "j"}},
		},
		OutSchema: a.OutSchema.Concat(b.OutSchema), Rows: 3250, CostVal: 4100.5,
	}
	abc := &JoinNode{Kind: NestedLoop, Left: ab, Right: c, OutSchema: ab.OutSchema.Concat(c.OutSchema), Rows: 130, CostVal: 99999.95}
	return &Plan{Root: &AggregateNode{
		GroupBy:   []sql.ColRef{{Table: "c", Column: "v"}, {Table: "a", Column: "k"}},
		Child:     abc,
		OutSchema: col("c", "v"),
		Rows:      12, CostVal: 100001.25,
	}}
}

// TestExplainGolden pins Explain byte for byte: it is the explain field
// of /v1/reoptimize's responses, and EXPLAIN ANALYZE renders through it.
func TestExplainGolden(t *testing.T) {
	const want = "" +
		"HashAggregate by c.v, a.k  (rows=12.0 cost=100001.2)\n" +
		"  NestLoop (cross)  (rows=130.0 cost=99999.9)\n" +
		"    IndexNestLoop on a.k = b2.k AND b2.j = a.j  (rows=3250.0 cost=4100.5)\n" +
		"      SeqScan on a  (rows=1000.0 cost=25.0)\n" +
		"      IndexScan on b AS b2 (index on k)  (rows=3.2 cost=8.1)\n" +
		"        Filter: b2.k = 7 AND b2.s BETWEEN 'x' AND 'y'\n" +
		"    SeqScan on cust AS c  (rows=0.0 cost=1234.6)\n" +
		"      Filter: c.v < 0.5\n"
	if got := explainGoldenPlan().Explain(); got != want {
		t.Errorf("Explain:\n%s\nwant:\n%s", got, want)
	}
}

var explainSink string

// BenchmarkExplain renders the golden plan: every /v1/reoptimize
// response carries its final plan's rendering.
func BenchmarkExplain(b *testing.B) {
	p := explainGoldenPlan()
	b.ReportAllocs()
	for range b.N {
		explainSink = p.Explain()
	}
}
