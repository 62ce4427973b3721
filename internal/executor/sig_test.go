package executor

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sql"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpch"
)

// The from-scratch forms of everything the prepared state memoizes, one
// derivation per node from the node itself — the oracle Prepared must
// reproduce byte for byte: cache keys and faultinject tags are derived
// from these.

// subtreeSig is the reference signature: one walk of the whole subtree
// per node, every filter and predicate rendered and sorted from scratch.
func subtreeSig(n plan.Node) string {
	var toks []string
	plan.Walk(n, func(m plan.Node) {
		switch t := m.(type) {
		case *plan.ScanNode:
			toks = append(toks, "T:"+t.Alias+"="+t.Table)
			for _, f := range t.Filters {
				toks = append(toks, "F:"+f.String())
			}
		case *plan.JoinNode:
			for _, p := range t.Preds {
				toks = append(toks, "J:"+p.Canonical().String())
			}
		}
	})
	sort.Strings(toks)
	return plan.CanonicalSet(n.Aliases()) + "||" + strings.Join(toks, "&")
}

// boundaryColumns returns, for a relation set, the columns any ancestor
// join can reference: the set-side columns of query join predicates with
// exactly one endpoint inside the set.
func boundaryColumns(q *sql.Query, aliases []string) []sql.ColRef {
	in := make(map[string]bool, len(aliases))
	for _, a := range aliases {
		in[a] = true
	}
	seen := map[sql.ColRef]bool{}
	var out []sql.ColRef
	for _, p := range q.Joins {
		li, ri := in[p.Left.Table], in[p.Right.Table]
		if li == ri {
			continue // internal or fully external predicate
		}
		c := p.Left
		if ri {
			c = p.Right
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// testPrefix is the key namespace of a handle prepared for sample epoch
// 0, which is what the tests' handles are (prep).
const testPrefix = "s0|"

// subKey builds the cache key for a subtree: prefix (sample epoch
// namespace), canonical signature, and the boundary-column set the
// enclosing query requires of it.
func subKey(prefix, sig string, refs []sql.ColRef) string {
	key := prefix + sig + "|B:"
	for _, r := range refs {
		key += r.Table + "." + r.Column + ","
	}
	return key
}

func findRef(refs []sql.ColRef, c sql.ColRef) int {
	for i, r := range refs {
		if r == c {
			return i
		}
	}
	return -1
}

// joinKeys canonicalizes a join's predicates and resolves each to the
// children's boundary-column indexes.
func joinKeys(t *testing.T, raw []sql.JoinPred, lrefs, rrefs []sql.ColRef) (preds []sql.JoinPred, lkey, rkey []int) {
	preds = append([]sql.JoinPred(nil), raw...)
	sort.Slice(preds, func(i, j int) bool {
		return preds[i].Canonical().String() < preds[j].Canonical().String()
	})
	lkey = make([]int, len(preds))
	rkey = make([]int, len(preds))
	for k, p := range preds {
		li, ri := findRef(lrefs, p.Left), findRef(rrefs, p.Right)
		if li < 0 || ri < 0 {
			li, ri = findRef(lrefs, p.Right), findRef(rrefs, p.Left)
		}
		if li < 0 || ri < 0 {
			t.Fatalf("cannot resolve join predicate %s", p)
		}
		lkey[k], rkey[k] = li, ri
	}
	return preds, lkey, rkey
}

// gatherPlan resolves each output boundary column to the child side and
// index it comes from.
func gatherPlan(t *testing.T, outRefs, lrefs, rrefs []sql.ColRef) []gatherSrc {
	gather := make([]gatherSrc, len(outRefs))
	for k, ref := range outRefs {
		if li := findRef(lrefs, ref); li >= 0 {
			gather[k] = gatherSrc{left: true, idx: li}
			continue
		}
		ri := findRef(rrefs, ref)
		if ri < 0 {
			t.Fatalf("missing boundary column %s", ref)
		}
		gather[k] = gatherSrc{left: false, idx: ri}
	}
	return gather
}

// TestPreparedMatchesFromScratch checks every node of the OTT and TPC-H
// plans: what the prepared state derives by mask — Γ key, signature,
// boundary columns, cache key, join keys, gather plan — equals the per-node derivation, whether the state is fresh or already
// filled by another plan of the same query.
func TestPreparedMatchesFromScratch(t *testing.T) {
	byQuery := map[*sql.Query][]*plan.Plan{}
	var queries []*sql.Query
	add := func(cat *catalog.Catalog, qs []*sql.Query) {
		for _, bushy := range []bool{true, false} {
			cfg := optimizer.DefaultConfig()
			cfg.BushyTrees = bushy
			opt := optimizer.New(cat, cfg)
			for _, q := range qs {
				p, err := opt.Optimize(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				if byQuery[q] == nil {
					queries = append(queries, q)
				}
				byQuery[q] = append(byQuery[q], p)
			}
		}
	}
	ottCat, err := ott.Generate(ott.Config{Seed: 1, RowsPerValue: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 5, 6} {
		qs, err := ott.Queries(ottCat, ott.QueryConfig{NumTables: n, SameConstant: 2, Count: 4, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		add(ottCat, qs)
	}
	// Predicates written right to left, and a FROM order that is not
	// alias order: positions, sort order and rendering all disagree.
	reversed, err := sql.Parse("SELECT COUNT(*) FROM r3 AS t3, r1 AS t1, r2 AS t2 WHERE t2.b = t1.b AND t3.b = t2.b AND t3.a = t1.a AND t1.a = 1", ottCat)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range reversed.Joins { // the parser writes them canonically
		reversed.Joins[i] = sql.JoinPred{Left: j.Right, Right: j.Left}
	}
	add(ottCat, []*sql.Query{reversed})
	tpchCat, err := tpch.Generate(tpch.Config{Seed: 1, Customers: 150, Z: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, tpl := range tpch.Templates() {
		q, err := sql.Parse(tpl.Gen(rng), tpchCat)
		if err != nil {
			t.Fatal(err)
		}
		add(tpchCat, []*sql.Query{q})
	}

	nodes := 0
	for _, q := range queries {
		shared := compileOnly(t, q, nil, 7)
		for _, p := range byQuery[q] {
			for _, prep := range []*Prepared{compileOnly(t, q, nil, 7), shared} {
				steps, err := prep.compile(p.Root)
				if err != nil {
					t.Fatalf("plan %s: %v", p.Fingerprint(), err)
				}
				for i := range steps {
					st := &steps[i]
					aliases := st.node.Aliases()
					refs := boundaryColumns(q, aliases)
					sig := subtreeSig(st.node)
					if st.Set.Key != plan.CanonicalSet(aliases) || st.Set.sig != sig ||
						!slices.Equal(st.Set.refs, refs) || st.Set.key != subKey("s7|", sig, refs) {
						t.Fatalf("plan %s: node %v: prepared\n %q %q %v\nfrom scratch\n %q %v",
							p.Fingerprint(), aliases, st.Set.sig, st.Set.key, st.Set.refs, sig, refs)
					}
					nodes++
					j, ok := st.node.(*plan.JoinNode)
					if !ok {
						continue
					}
					l, r := steps[st.left].Set, steps[st.right].Set
					preds, lkey, rkey := joinKeys(t, j.Preds, l.refs, r.refs)
					for k := range preds {
						preds[k] = preds[k].Canonical()
					}
					if !slices.Equal(st.join.preds, preds) || !slices.Equal(st.join.lkey, lkey) || !slices.Equal(st.join.rkey, rkey) ||
						!slices.Equal(st.join.gather, gatherPlan(t, refs, l.refs, r.refs)) {
						t.Fatalf("plan %s: join %v: prepared %+v", p.Fingerprint(), aliases, *st.join)
					}
				}
			}
		}
	}
	if nodes < 400 {
		t.Fatalf("only %d nodes checked", nodes)
	}
}
