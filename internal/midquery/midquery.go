// Package midquery implements the runtime (mid-query) re-optimization
// baseline the paper compares against conceptually in §1 and §6 (Kabra
// and DeWitt [25]; progressive optimization, Markl et al. [30]). The
// executor materializes each join result at a pipeline boundary,
// observes the TRUE cardinality, and re-plans the remaining work over
// the materialized result. This is the "runtime re-optimization can observe
// accurate cardinalities but pays materialization costs" trade-off the
// paper describes — implemented here so the two approaches can be
// compared on the same engine (see the paper's Appendix G note that
// such a comparison requires an engine supporting both).
//
// Simplifications relative to a production POP implementation: every
// join is a materialization point (the paper notes runtime re-optimizers
// switch plans only at pipeline boundaries; materializing each join is
// the finest such granularity), and re-planning reuses the same
// optimizer — a temporary enters it as a base table of exactly its
// observed size — rather than plan "check-points".
package midquery

import (
	"context"
	"fmt"
	"time"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
)

// Result reports one runtime-re-optimized execution.
type Result struct {
	// Count is the number of output rows.
	Count int64
	// Duration is the total wall-clock time, including materialization
	// and re-planning.
	Duration time.Duration
	// Replans is how many times the remaining plan changed after a
	// materialization.
	Replans int
	// Materializations is the number of intermediate results written.
	Materializations int
	// MaterializedRows is the total number of rows materialized — the
	// runtime overhead the paper contrasts with compile-time sampling.
	MaterializedRows int64
	// Gamma holds the true cardinalities observed during execution, as
	// sets over the FROM list of the query run.
	Gamma *optimizer.Gamma
}

// Executor runs queries with mid-query re-optimization.
type Executor struct {
	Opt *optimizer.Optimizer
	Cat *catalog.Catalog
}

// New returns a runtime re-optimizing executor.
func New(opt *optimizer.Optimizer, cat *catalog.Catalog) *Executor {
	return &Executor{Opt: opt, Cat: cat}
}

// RunCtx executes q with re-optimization after every join
// materialization: plan the remaining query, execute only the plan's
// *first* join (deepest leftmost), record its true cardinality in
// Result.Gamma, replace the pair with a materialized temporary relation,
// and repeat until one relation remains.
//
// ctx is checked before each replan step and threaded into every
// materializing execution, so a cancelled context aborts
// mid-materialization with ctx.Err(). Temporaries registered before the
// abort stay in the run's private workspace catalog, which is discarded
// with the run.
func (e *Executor) RunCtx(ctx context.Context, q *sql.Query) (*Result, error) {
	if len(q.GroupBy) > 0 || len(q.OrderBy) > 0 || q.Limit > 0 {
		return nil, fmt.Errorf("midquery: GROUP BY / ORDER BY / LIMIT queries are not supported by the runtime re-optimizer: %w", executor.ErrUnsupportedPlan)
	}
	start := time.Now()
	res := &Result{Gamma: optimizer.NewGamma(q)}

	// Working state: a shadow catalog where executed sub-results become
	// base tables, plus a rewritten query over the remaining relations.
	// The optimizer is re-bound to the shadow catalog so temporaries
	// resolve.
	work := newWorkspace(e.Cat, q)
	opt := optimizer.New(work.cat, e.Opt.Config())

	for len(work.q.Tables) > 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Each temporary enters the plan as a base table of exactly its
		// observed row count, so replanning needs no Γ.
		p, err := opt.Optimize(work.q, nil)
		if err != nil {
			return nil, fmt.Errorf("midquery: replan: %w", err)
		}
		if work.lastFingerprint != "" && p.Fingerprint() != work.lastFingerprint {
			res.Replans++
		}
		join := deepestJoin(p.Root)
		if join == nil {
			return nil, fmt.Errorf("midquery: plan has no join for %d relations", len(work.q.Tables))
		}
		mat, rows, err := work.materialize(ctx, join)
		if err != nil {
			return nil, err
		}
		res.Materializations++
		res.MaterializedRows += rows

		// Record the observed TRUE cardinality for the merged set; the
		// rest is planned over the temporary.
		res.Gamma.Set(work.merge(join, mat), float64(rows))

		// Remember what the remainder of the plan looked like so replans
		// can be counted.
		work.lastFingerprint = remainderFingerprint(p, join)
	}

	// Execute the final single-relation plan (applies any remaining
	// filters; for already-joined relations the filters were applied on
	// the way in).
	p, err := opt.Optimize(work.q, nil)
	if err != nil {
		return nil, err
	}
	run, err := executor.RunCtx(ctx, p, work.cat, executor.Options{CountOnly: true})
	if err != nil {
		return nil, err
	}
	res.Count = run.Count
	res.Duration = time.Since(start)
	return res, nil
}

// workspace tracks the progressively merged query.
type workspace struct {
	cat *catalog.Catalog
	q   *sql.Query
	// covers holds, for each entry of q's FROM list by position, the
	// relation set it stands for as a mask over the original query's FROM
	// list: a base relation's own bit, a temporary's union of the sets
	// it merged.
	covers          []uint64
	tmpCounter      int
	lastFingerprint string
}

func newWorkspace(cat *catalog.Catalog, q *sql.Query) *workspace {
	w := &workspace{cat: cloneCatalog(cat), covers: make([]uint64, len(q.Tables))}
	// Copy the query; the loop mutates it.
	cq := *q
	cq.Tables = append([]sql.TableRef(nil), q.Tables...)
	cq.Selections = append([]sql.Selection(nil), q.Selections...)
	cq.Joins = append([]sql.JoinPred(nil), q.Joins...)
	cq.Projection = nil
	cq.CountStar = true
	w.q = &cq
	for i, tr := range q.Tables {
		w.covers[i] = q.Bit(tr.Alias)
	}
	return w
}

// cloneCatalog makes a shallow catalog copy sharing base tables but
// allowing temporary registrations.
func cloneCatalog(cat *catalog.Catalog) *catalog.Catalog {
	c := catalog.New()
	for _, name := range cat.TableNames() {
		t, err := cat.Table(name)
		if err == nil {
			c.MustAddTable(t)
		}
	}
	// Base tables keep their statistics; a temporary has none, and the
	// optimizer prices it from its exact row count.
	for _, name := range cat.TableNames() {
		if ts := cat.Stats(name); ts != nil {
			c.CopyStats(name, ts)
		}
	}
	return c
}

// deepestJoin returns the first join all of whose inputs are base scans.
func deepestJoin(n plan.Node) *plan.JoinNode {
	j, ok := n.(*plan.JoinNode)
	if !ok {
		return nil
	}
	if l := deepestJoin(j.Left); l != nil {
		return l
	}
	if r := deepestJoin(j.Right); r != nil {
		return r
	}
	return j // both children are scans
}

// materialize executes one join subtree and stores the result as a
// temporary table named _tmpN.
func (w *workspace) materialize(ctx context.Context, j *plan.JoinNode) (*storage.Table, int64, error) {
	sub := &plan.Plan{Root: j, Query: &sql.Query{}}
	run, err := executor.RunCtx(ctx, sub, w.cat, executor.Options{})
	if err != nil {
		return nil, 0, fmt.Errorf("midquery: materialize: %w", err)
	}
	w.tmpCounter++
	name := fmt.Sprintf("_tmp%d", w.tmpCounter)
	// The temporary's columns are mangled as alias__column so that
	// every column stays unique and later join predicates can re-point
	// at the temporary deterministically.
	cols := make([]rel.Column, len(j.OutSchema.Columns))
	for i, c := range j.OutSchema.Columns {
		cols[i] = rel.Column{Name: mangle(c.Table, c.Name), Kind: c.Kind}
	}
	tmp := storage.NewTable(name, rel.NewSchema(cols...))
	for _, row := range run.Rows {
		tmp.MustAppend(row)
	}
	if err := w.cat.AddTable(tmp); err != nil {
		return nil, 0, err
	}
	return tmp, run.Count, nil
}

// merge rewrites the query: the two joined aliases become one temporary
// relation; selections consumed by the materialized subtree are dropped;
// joins inside it are dropped; joins touching it re-point at the
// temporary alias. It returns the relation set the temporary covers.
func (w *workspace) merge(j *plan.JoinNode, tmp *storage.Table) uint64 {
	merged := map[string]bool{}
	for _, a := range j.Aliases() {
		merged[a] = true
	}
	alias := tmp.Name()

	var tables []sql.TableRef
	var covers []uint64
	var set uint64
	for i, tr := range w.q.Tables {
		if merged[tr.Alias] {
			set |= w.covers[i]
		} else {
			tables, covers = append(tables, tr), append(covers, w.covers[i])
		}
	}
	w.q.Tables = append(tables, sql.TableRef{Name: alias, Alias: alias})
	w.covers = append(covers, set)

	var sels []sql.Selection
	for _, s := range w.q.Selections {
		if !merged[s.Col.Table] {
			sels = append(sels, s)
		}
	}
	w.q.Selections = sels

	var joins []sql.JoinPred
	for _, jp := range w.q.Joins {
		l, r := merged[jp.Left.Table], merged[jp.Right.Table]
		if l && r {
			continue // consumed by the materialized subtree
		}
		// Predicates touching the merged set re-point at the temporary
		// through the mangled column name.
		if l {
			jp.Left = sql.ColRef{Table: alias, Column: mangle(jp.Left.Table, jp.Left.Column)}
		}
		if r {
			jp.Right = sql.ColRef{Table: alias, Column: mangle(jp.Right.Table, jp.Right.Column)}
		}
		joins = append(joins, jp.Canonical())
	}
	w.q.Joins = joins
	return set
}

// mangle forms the temporary-relation column name for alias.column.
func mangle(alias, column string) string { return alias + "__" + column }

// remainderFingerprint identifies the plan minus the executed subtree,
// for replan counting.
func remainderFingerprint(p *plan.Plan, executed *plan.JoinNode) string {
	return "rest-of:" + p.Fingerprint() + "-minus:" + executed.Fingerprint()
}
