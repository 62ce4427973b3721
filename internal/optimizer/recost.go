package optimizer

import (
	"fmt"
	"math/bits"

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
	pl, err := o.prepare(sql.NewGraph(q), gamma, false)
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
	rp.Root, rp.Query = root, p.g.Query
	return &rp, nil
}

// EstimateCardinality returns the optimizer's statistics-based estimate
// for the cardinality of a relation subset of the query (no Γ).
func (o *Optimizer) EstimateCardinality(q *sql.Query, aliases []string) (float64, error) {
	p, err := o.prepare(sql.NewGraph(q), nil, false)
	if err != nil {
		return 0, err
	}
	var mask uint64
	for _, a := range aliases {
		bit := q.Bit(a)
		if bit == 0 {
			return 0, fmt.Errorf("optimizer: unknown alias %q", a)
		}
		mask |= bit
	}
	return p.estimate(mask, false), nil
}

// recostNode re-derives a subtree's estimates with the planner's pricers
// (accessCost, operatorCost, probeCost, priceAggregate) and returns the
// copy and its relation set.
func (p *Planner) recostNode(n plan.Node) (plan.Node, uint64, error) {
	switch t := n.(type) {
	case *plan.ScanNode:
		if bit := p.g.Query.Bit(t.Alias); bit != 0 {
			if cost, ok := p.o.accessCost(&p.leaves[bits.TrailingZeros64(bit)], t.Access, t.IndexColumn); ok {
				c := *t
				c.Rows, c.CostVal = p.card(bit), cost
				return &c, bit, nil
			}
		}
		return nil, 0, fmt.Errorf("optimizer: %s is not an access path of the query", t.Fingerprint())
	case *plan.JoinNode:
		left, lm, err := p.recostNode(t.Left)
		if err != nil {
			return nil, 0, err
		}
		right, rm := plan.Node(nil), uint64(0)
		if t.Kind == plan.IndexNestedLoop {
			right, rm, err = p.recostProbe(t, lm)
		} else {
			right, rm, err = p.recostNode(t.Right)
		}
		if err != nil {
			return nil, 0, err
		}
		c := *t
		c.Left, c.Right, c.Rows = left, right, p.card(lm|rm)
		c.CostVal = p.operatorCost(t.Kind, left.Cost(), right.Cost(), left.EstRows(), right.EstRows(), p.crossing(lm, rm), c.Rows)
		return &c, lm | rm, nil
	case *plan.AggregateNode:
		child, mask, err := p.recostNode(t.Child)
		if err != nil {
			return nil, 0, err
		}
		c := *t
		c.Child = child
		c.Rows, c.CostVal = p.priceAggregate(t.GroupBy, child)
		return &c, mask, nil
	default:
		return nil, 0, fmt.Errorf("optimizer: unknown node type %T", n)
	}
}

// recostProbe re-derives the inner side of an index nested loop over the
// outer set lm as Planner.join builds it: an index scan of one relation
// priced as one probe through the column of the driving predicate.
func (p *Planner) recostProbe(j *plan.JoinNode, lm uint64) (plan.Node, uint64, error) {
	if s, ok := j.Right.(*plan.ScanNode); ok && len(j.Preds) > 0 {
		rm := p.g.Query.Bit(s.Alias)
		for k := range p.edges {
			if e := &p.edges[k]; rm != 0 && e.Pred == j.Preds[0] && e.Crosses(lm, rm) {
				if pc, col, ok := p.probeCost(e, rm, p.crossing(lm, rm)); ok && col == s.IndexColumn {
					c := *s
					c.Rows, c.CostVal = p.card(rm), pc
					return &c, rm, nil
				}
			}
		}
	}
	return nil, 0, fmt.Errorf("optimizer: %s is not an index nested loop of the query", j.Fingerprint())
}
