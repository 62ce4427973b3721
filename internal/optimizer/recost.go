package optimizer

import (
	"fmt"

	"reopt/internal/plan"
	"reopt/internal/sql"
)

// Recost re-derives the cardinality and cost estimates of an existing
// physical plan under a (possibly different) Γ, without changing the
// plan's structure. This is how the re-optimizer compares plans "in
// terms of the cost metric used by the query optimizer" after sampling
// has refined the statistics (cost_s of Theorems 5 and 6), and how the
// early-stop strategies pick the best plan generated so far (§5.4).
func (o *Optimizer) Recost(q *sql.Query, p *plan.Plan, gamma *Gamma) (*plan.Plan, error) {
	pl, err := o.prepare(q, gamma, false)
	if err != nil {
		return nil, err
	}
	return pl.Recost(p)
}

// Recost is Optimizer.Recost under the planner's current Γ.
func (p *Planner) Recost(pl *plan.Plan) (*plan.Plan, error) {
	root, _, err := p.recostNode(pl.Root)
	if err != nil {
		return nil, err
	}
	// Only estimates changed, so the copy keeps pl's memoized identity.
	rp := *pl
	rp.Root, rp.Query = root, p.q
	return &rp, nil
}

// EstimateCardinality returns the optimizer's statistics-based estimate
// for the cardinality of a relation subset of the query (no Γ).
func (o *Optimizer) EstimateCardinality(q *sql.Query, aliases []string) (float64, error) {
	p, err := o.prepare(q, nil, false)
	if err != nil {
		return 0, err
	}
	var mask uint64
	for _, a := range aliases {
		i, ok := p.aliasIdx[a]
		if !ok {
			return 0, fmt.Errorf("optimizer: unknown alias %q", a)
		}
		mask |= 1 << uint(i)
	}
	return p.estimate(mask, false), nil
}

func (p *Planner) recostNode(n plan.Node) (plan.Node, uint64, error) {
	switch t := n.(type) {
	case *plan.ScanNode:
		i, ok := p.aliasIdx[t.Alias]
		if !ok {
			return nil, 0, fmt.Errorf("optimizer: plan alias %q not in query", t.Alias)
		}
		mask := uint64(1) << uint(i)
		c := *t
		c.Rows = p.card(mask)
		c.CostVal = p.scanCost(&c, i)
		return &c, mask, nil
	case *plan.JoinNode:
		left, lm, err := p.recostNode(t.Left)
		if err != nil {
			return nil, 0, err
		}
		right, rm, err := p.recostNode(t.Right)
		if err != nil {
			return nil, 0, err
		}
		c := *t
		c.Left, c.Right = left, right
		c.Rows = p.card(lm | rm)
		c.CostVal = p.joinCost(&c, rm)
		return &c, lm | rm, nil
	case *plan.AggregateNode:
		child, mask, err := p.recostNode(t.Child)
		if err != nil {
			return nil, 0, err
		}
		c := *t
		c.Child = child
		if c.Rows > child.EstRows() {
			c.Rows = child.EstRows()
		}
		u := p.o.model.U
		c.CostVal = child.Cost() + child.EstRows()*u.CPUOperator + c.Rows*u.CPUTuple
		return &c, mask, nil
	default:
		return nil, 0, fmt.Errorf("optimizer: unknown node type %T", n)
	}
}

// scanCost prices a scan node as chooseScan would, for its fixed access
// path.
func (p *Planner) scanCost(s *plan.ScanNode, i int) float64 {
	t := p.leaves[i].table
	baseRows := float64(t.NumRows())
	if s.Access == plan.IndexScan && s.IndexColumn != "" {
		if ix := t.Index(s.IndexColumn); ix != nil {
			for _, f := range s.Filters {
				if f.Op == sql.OpEq && f.Col.Column == s.IndexColumn {
					matchRows := baseRows * p.o.selectionSel(s.Table, f)
					return p.o.model.IndexProbe(ix.Height(), matchRows, len(s.Filters)-1)
				}
			}
		}
	}
	return p.o.model.SeqScan(float64(t.NumPages()), baseRows, len(s.Filters))
}

// joinCost prices a join node as priceJoin would, for its fixed
// operator; the children carry their re-derived rows and costs.
func (p *Planner) joinCost(j *plan.JoinNode, rm uint64) float64 {
	m := p.o.model
	lcost, rcost := j.Left.Cost(), j.Right.Cost()
	lrows, rrows := j.Left.EstRows(), j.Right.EstRows()
	preds := len(j.Preds)
	switch j.Kind {
	case plan.HashJoin:
		return m.HashJoin(lcost, rcost, lrows, rrows, preds, j.Rows)
	case plan.MergeJoin:
		return m.MergeJoin(lcost, rcost, lrows, rrows, j.Rows)
	case plan.IndexNestedLoop:
		if inner, ok := j.Right.(*plan.ScanNode); ok && rm&(rm-1) == 0 {
			t := p.leaves[p.aliasIdx[inner.Alias]].table
			if ix := t.Index(inner.IndexColumn); ix != nil {
				nd := float64(ix.NumDistinct())
				matchPerProbe := 0.0
				if nd > 0 {
					matchPerProbe = float64(t.NumRows()) / nd
				}
				residual := len(inner.Filters) + preds - 1
				probe := m.IndexProbe(ix.Height(), matchPerProbe, residual)
				return m.IndexNestLoop(lcost, lrows, probe, j.Rows)
			}
		}
	}
	return m.NestLoop(lcost, rcost, lrows, rrows, preds, j.Rows)
}
