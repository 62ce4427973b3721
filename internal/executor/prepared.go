package executor

// Prepared validation (DESIGN.md §11). Algorithm 1 validates the same
// query round after round; what the engine needs beyond the plan at hand
// — signatures, boundary columns, cache keys, join keys, gather plans —
// depends only on the query and on which of its relations a subtree
// covers, so it is derived once per request, keyed by the subtree's
// alias mask over Query.Tables positions (plan.Plan.JoinSets' convention),
// and each plan is compiled into a flat post-order list of Steps pointing
// at those records. The handle also binds what the engine reads: the
// table each FROM position scans, the scale factors, the sample epoch and
// the request's memory budget. The query is read through its graph
// (sql.Graph), the one the request's planner reads: an alias's bit, a
// relation's filters and a join predicate's canonical form, string and
// bits come from it, and what is rendered here — signature tokens,
// boundary columns, cache keys — is rendered from those.
//
// The exactness rule: a mask names one logical sub-result only for a
// subtree that applies exactly the query's filters on its relations and
// exactly the query's join predicates internal to them, as every
// optimizer plan does. compile checks it node by node and reports any
// other plan as ErrUnsupportedPlan before anything executes, so a
// hand-built plan fails its validation and never leaves an entry an
// optimizer-built plan of the same alias set would be served.

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"

	"reopt/internal/plan"
	"reopt/internal/sql"
	"reopt/internal/storage"
)

// Prepared is the one per-request handle on validation: the cache the
// request validates through (nil: none), the tables its scans read and
// the sample epoch they belong to, which namespaces its keys, the
// per-table scale factors, the memory budget, and one query's validation
// state — what the engine needs to know about each relation set and each
// join of two sets, derived on first use and kept for the request. It is
// safe for concurrent use.
type Prepared struct {
	g      *sql.Graph
	cache  *SkeletonCache
	epoch  uint64           // the sample set the handle is bound to
	prefix string           // epoch's namespace, which every key renders under
	tables []*storage.Table // what each Query.Tables position scans
	scales []float64        // per Query.Tables position; nil when the caller scales nothing
	budget int64            // values one Count may materialize (memAccount); <= 0: unlimited

	// The query's vocabulary, rendered and sorted once so that a set's
	// strings are one filtered pass over it: a subsequence of a sorted
	// list is sorted.
	byAlias []int       // Query.Tables positions in alias order
	toks    []sigTok    // every signature token, sorted
	ends    []endpoint  // every join-predicate endpoint, by (alias, column)
	edges   []*sql.Edge // every join predicate between two FROM entries, by canonical rendering

	mu    sync.Mutex
	sets  map[uint64]*SetInfo
	joins map[[2]uint64]*joinInfo
}

// sigTok is one signature token — "T:alias=table", "F:filter" or
// "J:predicate" — and the relations a set must hold for it to apply
// within the set.
type sigTok struct {
	s    string
	need uint64
}

// endpoint is one side of a query join predicate: a boundary column of
// every set that holds its relation (in) but not the other side's (out).
type endpoint struct {
	ref     sql.ColRef
	in, out uint64
}

// SetInfo is what the query says about one relation set, whatever tree
// produces it.
type SetInfo struct {
	// Mask is the set over Query.Tables positions.
	Mask uint64
	// Key is the canonical key of the set (plan.CanonicalSet), for the
	// readers that print or serialize it.
	Key string

	refs []sql.ColRef // boundary columns: what an enclosing join may probe
	sig  string       // canonical subtree signature
	key  string       // cache key: epoch prefix + sig + boundary columns
}

// joinInfo is what the query says about joining two disjoint relation
// sets, left as the probe side and right as the build side.
type joinInfo struct {
	preds      []sql.JoinPred // the query's predicates crossing the sides, canonical order
	lkey, rkey []int          // their columns in each side's boundary columns
	gather     []gatherSrc    // where each output boundary column comes from
}

// Step is one node of a compiled plan. Steps are in post-order — both
// inputs of a join precede it, the root is last — which is the order the
// engine evaluates in.
type Step struct {
	// Set is the relation set the node produces.
	Set *SetInfo
	// Scale is the product of the per-table scale factors of the node's
	// relations, folded in the plan's leaf order: float multiplication
	// does not associate, and Γ must repeat bit for bit whichever engine
	// or round computed it.
	Scale float64
	// Count is the node's output count over the samples, filled by the
	// engine; Rows is how many physical rows the engine holds it in —
	// distinct boundary tuples, Count / Rows each on average (DESIGN.md §12).
	Count, Rows int64

	node        plan.Node
	scan        *plan.ScanNode // nil for a join
	join        *joinInfo      // nil for a scan
	left, right int32          // a join's input steps
	first       int32          // the subtree's leftmost leaf step
}

// Node returns the plan node the step was compiled from.
func (s *Step) Node() plan.Node { return s.node }

// NewPrepared returns the handle the plans of g's query validate
// through: against cache (nil caches nothing), scanning tables, one per
// Query.Tables position, which belong to the samples of epoch — the
// namespace of every sub-result key the handle renders, so one cache can
// serve several sample sets and catalogs — with scales, the per-table
// factors by Query.Tables position that Step.Scale multiplies (nil:
// none), and memBudget, the values one Count may materialize (<= 0:
// unlimited). Signatures, boundary columns, cache keys and join
// resolutions are derived once, on first use, instead of once per plan
// (DESIGN.md §11). A graph with a join predicate that does not join two
// distinct FROM entries (g.Err) has no handle: the error matches
// ErrUnsupportedPlan too.
func NewPrepared(g *sql.Graph, cache *SkeletonCache, epoch uint64, tables []*storage.Table, scales []float64, memBudget int64) (*Prepared, error) {
	if g.Err != nil {
		return nil, fmt.Errorf("executor: %w: %w", g.Err, ErrUnsupportedPlan)
	}
	q := g.Query
	s := &Prepared{
		g: g, cache: cache, epoch: epoch, prefix: "s" + strconv.FormatUint(epoch, 10) + "|",
		tables: tables, scales: scales, budget: memBudget,
		byAlias: make([]int, len(q.Tables)),
		toks:    make([]sigTok, 0, len(q.Tables)+len(q.Selections)+len(q.Joins)),
		sets:    make(map[uint64]*SetInfo, 2*len(q.Tables)),
		joins:   make(map[[2]uint64]*joinInfo, len(q.Tables)),
	}
	for i, tr := range q.Tables {
		s.byAlias[i] = i
		s.toks = append(s.toks, sigTok{"T:" + tr.Alias + "=" + tr.Name, g.Rels[i].Bit})
		for _, f := range g.Rels[i].Filters {
			s.toks = append(s.toks, sigTok{"F:" + f.String(), g.Rels[i].Bit})
		}
	}
	slices.SortFunc(s.byAlias, func(a, b int) int { return strings.Compare(q.Tables[a].Alias, q.Tables[b].Alias) })
	for i := range g.Edges {
		e := &g.Edges[i]
		s.ends = append(s.ends, endpoint{e.Canon.Left, e.L, e.R}, endpoint{e.Canon.Right, e.R, e.L})
		s.edges = append(s.edges, e)
		s.toks = append(s.toks, sigTok{"J:" + e.Key, e.L | e.R})
	}
	slices.SortStableFunc(s.toks, func(a, b sigTok) int { return strings.Compare(a.s, b.s) })
	slices.SortStableFunc(s.edges, func(a, b *sql.Edge) int { return strings.Compare(a.Key, b.Key) })
	slices.SortStableFunc(s.ends, func(a, b endpoint) int {
		if c := strings.Compare(a.ref.Table, b.ref.Table); c != 0 {
			return c
		}
		return strings.Compare(a.ref.Column, b.ref.Column)
	})
	return s, nil
}

// Serves reports whether s is the handle for plans of q over the samples
// of epoch. A nil handle serves none.
func (s *Prepared) Serves(q *sql.Query, epoch uint64) bool {
	return s != nil && s.g.Query == q && s.epoch == epoch
}

// Cache returns the store s validates through: nil for an uncached
// handle, and for a nil one.
func (s *Prepared) Cache() *SkeletonCache {
	if s == nil {
		return nil
	}
	return s.cache
}

// MemBudget returns the budget s validates under: 0 (unlimited) for a
// nil handle.
func (s *Prepared) MemBudget() int64 {
	if s == nil {
		return 0
	}
	return s.budget
}

// compile flattens the plan rooted at root into steps, enforcing the
// exactness rule and resolving every join, so the steps can run on the
// skeleton engine.
func (s *Prepared) compile(root plan.Node) ([]Step, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	steps := make([]Step, 0, 2*len(s.g.Rels))
	if _, err := s.add(root, &steps); err != nil {
		return nil, err
	}
	return steps, nil
}

func (s *Prepared) add(n plan.Node, steps *[]Step) (int32, error) {
	switch t := n.(type) {
	case *plan.ScanNode:
		bit := s.g.Query.Bit(t.Alias)
		if bit == 0 {
			return 0, fmt.Errorf("executor: scan of %s: alias not in the query: %w", t.Alias, ErrUnsupportedPlan)
		}
		pos := bits.TrailingZeros64(bit)
		if s.g.Query.Tables[pos].Name != t.Table || !slices.EqualFunc(t.Filters, s.g.Rels[pos].Filters, sameSelection) {
			return 0, fmt.Errorf("executor: scan of %s does not apply exactly the query's filters: %w", t.Alias, ErrUnsupportedPlan)
		}
		i := int32(len(*steps))
		st := Step{Set: s.set(bit), Scale: 1, node: n, scan: t, first: i}
		if s.scales != nil {
			st.Scale = s.scales[pos]
		}
		*steps = append(*steps, st)
		return i, nil

	case *plan.JoinNode:
		li, err := s.add(t.Left, steps)
		if err != nil {
			return 0, err
		}
		ri, err := s.add(t.Right, steps)
		if err != nil {
			return 0, err
		}
		lm, rm := (*steps)[li].Set.Mask, (*steps)[ri].Set.Mask
		if lm&rm != 0 {
			return 0, fmt.Errorf("executor: join inputs share a relation: %w", ErrUnsupportedPlan)
		}
		i := int32(len(*steps))
		st := Step{Set: s.set(lm | rm), Scale: 1, node: n, join: s.join(lm, rm), left: li, right: ri, first: (*steps)[li].first}
		if !samePreds(t.Preds, st.join.preds) {
			return 0, fmt.Errorf("executor: join of %s does not apply exactly the query's predicates between its inputs: %w",
				strings.ReplaceAll(st.Set.Key, plan.AliasSep, ","), ErrUnsupportedPlan)
		}
		for j := st.first; j < i; j++ {
			if leaf := &(*steps)[j]; leaf.scan != nil {
				st.Scale *= leaf.Scale
			}
		}
		*steps = append(*steps, st)
		return i, nil

	default:
		return 0, fmt.Errorf("executor: cannot evaluate %T: %w", n, ErrUnsupportedPlan)
	}
}

// samePreds reports whether a join node's predicates are exactly want
// (already canonical), as multisets and whichever way round each is
// written. The query keeps duplicate predicates, so want has no bound on
// its length; the used slots live on the stack up to 64 of them.
func samePreds(got, want []sql.JoinPred) bool {
	if len(got) != len(want) {
		return false
	}
	var buf [64]bool
	used := buf[:]
	if len(want) > len(buf) {
		used = make([]bool, len(want))
	}
next:
	for _, g := range got {
		g = g.Canonical()
		for i, w := range want {
			if !used[i] && w == g {
				used[i] = true
				continue next
			}
		}
		return false
	}
	return true
}

// sameSelection is == on selections with each constant compared by kind
// and Key, so that a NaN constant is the same as itself. A scan's filters
// must be its position's filters in the graph, in order (the
// optimizer's).
func sameSelection(a, b sql.Selection) bool {
	return a.Col == b.Col && a.Op == b.Op &&
		a.Value.Kind() == b.Value.Kind() && a.Value.Key() == b.Value.Key() &&
		a.Value2.Kind() == b.Value2.Kind() && a.Value2.Key() == b.Value2.Key()
}

// set returns the record of one relation set, deriving it on first use:
// the canonical set key; the signature — the relation set plus every filter and
// predicate applied within it, order-insensitively, so every join order
// of the set renders the same string; and the boundary columns — the
// set-side columns of query join predicates with exactly one endpoint
// inside the set, i.e. what any enclosing join can probe. The three
// strings are one allocation: the cache key holds the signature, which
// starts with the set key.
func (s *Prepared) set(mask uint64) *SetInfo {
	if si, ok := s.sets[mask]; ok {
		return si
	}
	si := &SetInfo{Mask: mask}
	for i := range s.ends {
		if e := &s.ends[i]; e.in&mask != 0 && e.out&mask == 0 && (len(si.refs) == 0 || si.refs[len(si.refs)-1] != e.ref) {
			si.refs = append(si.refs, e.ref)
		}
	}
	var b strings.Builder
	b.Grow(len(s.prefix) + 64*bits.OnesCount64(mask))
	b.WriteString(s.prefix)
	for _, pos := range s.byAlias {
		if mask&(1<<uint(pos)) != 0 {
			if b.Len() > len(s.prefix) {
				b.WriteString(plan.AliasSep)
			}
			b.WriteString(s.g.Query.Tables[pos].Alias)
		}
	}
	keyEnd := b.Len()
	b.WriteString("||")
	first := true
	for i := range s.toks {
		if t := &s.toks[i]; t.need&mask == t.need {
			if !first {
				b.WriteByte('&')
			}
			b.WriteString(t.s)
			first = false
		}
	}
	sigEnd := b.Len()
	b.WriteString("|B:")
	for _, r := range si.refs {
		b.WriteString(r.Table)
		b.WriteByte('.')
		b.WriteString(r.Column)
		b.WriteByte(',')
	}
	si.key = b.String()
	si.sig = si.key[len(s.prefix):sigEnd]
	si.Key = si.key[len(s.prefix):keyEnd]
	s.sets[mask] = si
	return si
}

// join returns the record of joining set lm (probe side) with set rm
// (build side): the query's predicates between them in canonical order,
// resolved against both sides' boundary columns.
func (s *Prepared) join(lm, rm uint64) *joinInfo {
	k := [2]uint64{lm, rm}
	if ji, ok := s.joins[k]; ok {
		return ji
	}
	ji := &joinInfo{}
	s.joins[k] = ji
	l, r, out := s.set(lm), s.set(rm), s.set(lm|rm)
	for _, e := range s.edges {
		if !e.Crosses(lm, rm) {
			continue
		}
		lc, rc := e.Canon.Left, e.Canon.Right
		if e.L&lm == 0 {
			lc, rc = rc, lc
		}
		ji.preds = append(ji.preds, e.Canon)
		ji.lkey = append(ji.lkey, slices.Index(l.refs, lc))
		ji.rkey = append(ji.rkey, slices.Index(r.refs, rc))
	}
	// A boundary column of the union has its other endpoint outside both
	// sides, so it is a boundary column of the side that holds it.
	ji.gather = make([]gatherSrc, len(out.refs))
	for k, ref := range out.refs {
		if li := slices.Index(l.refs, ref); li >= 0 {
			ji.gather[k] = gatherSrc{left: true, idx: li}
		} else {
			ji.gather[k] = gatherSrc{idx: slices.Index(r.refs, ref)}
		}
	}
	return ji
}
