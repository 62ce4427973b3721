package optimizer

import (
	"math/rand"

	"reopt/internal/plan"
)

// Randomized-search parameters, loosely following PostgreSQL's GEQO
// defaults scaled down for an in-memory engine.
const (
	geqoPopulation  = 64
	geqoGenerations = 120
)

// searchRandomized is the GEQO-style fallback for queries that join more
// relations than the DP threshold: a small genetic algorithm over
// left-deep join orders (permutations), with edge-recombination-free
// crossover (order crossover) and swap mutation. The fitness of a
// permutation is the cost of the left-deep plan it induces, priced as
// scalars; only the winner is materialized.
func (p *Planner) searchRandomized() []int {
	n := len(p.leaves)
	rng := rand.New(rand.NewSource(p.o.cfg.Seed + int64(n)))
	cost := func(perm []int) float64 {
		c, _, _ := p.leftDeep(perm, nil)
		return c
	}

	pop := make([][]int, geqoPopulation)
	for i := range pop {
		pop[i] = rng.Perm(n)
	}
	best, bestCost := pop[0], cost(pop[0])
	for _, perm := range pop[1:] {
		if c := cost(perm); c < bestCost {
			best, bestCost = perm, c
		}
	}
	for g := 0; g < geqoGenerations; g++ {
		// Tournament selection of two parents.
		pick := func() []int {
			a, b := pop[rng.Intn(len(pop))], pop[rng.Intn(len(pop))]
			if cost(a) < cost(b) {
				return a
			}
			return b
		}
		child := orderCrossover(pick(), pick(), rng)
		if rng.Float64() < 0.3 {
			i, j := rng.Intn(n), rng.Intn(n)
			child[i], child[j] = child[j], child[i]
		}
		// Replace a random victim.
		pop[rng.Intn(len(pop))] = child
		if c := cost(child); c < bestCost {
			best, bestCost = child, c
		}
	}
	return best
}

// leftDeep prices the left-deep plan joining relations in the given
// order, choosing the cheapest physical operator at each level; with
// sets non-nil it also materializes the plan.
func (p *Planner) leftDeep(perm []int, sets *[]uint64) (cost float64, node plan.Node, fp string) {
	cur := uint64(1) << uint(perm[0])
	cost, rows := p.leaves[perm[0]].cost, p.card(cur)
	if sets != nil {
		node, fp = p.build(cur, sets)
	}
	for _, i := range perm[1:] {
		rm := uint64(1) << uint(i)
		outRows := p.card(cur | rm)
		var kind plan.JoinKind
		var probe int
		cost, kind, probe = p.priceJoin(cur, rm, cost, p.leaves[i].cost, rows, p.card(rm), outRows)
		if sets != nil {
			node, fp = p.join(cur, rm, node, fp, kind, probe, cost, sets)
		}
		cur, rows = cur|rm, outRows
	}
	return cost, node, fp
}

// orderCrossover implements OX1: copy a random slice from parent a, fill
// the rest in parent b's order.
func orderCrossover(a, b []int, rng *rand.Rand) []int {
	n := len(a)
	lo, hi := rng.Intn(n), rng.Intn(n)
	if lo > hi {
		lo, hi = hi, lo
	}
	child := make([]int, n)
	used := make([]bool, n)
	for i := lo; i <= hi; i++ {
		child[i] = a[i]
		used[a[i]] = true
	}
	j := 0
	for _, v := range b {
		if used[v] {
			continue
		}
		for j >= lo && j <= hi {
			j++
		}
		if j >= n {
			break
		}
		child[j] = v
		used[v] = true
		j++
	}
	return child
}
