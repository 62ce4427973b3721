package optimizer

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reopt/internal/plan"
	"reopt/internal/sql"
)

// FuzzRecostMatchesPlanner plans random chain and star queries over
// indexed tables — local filters, an optional GROUP BY, the DP or the
// randomized search — and merges random Δs into Γ. Under the Γ a plan
// was built with, Recost must reproduce every node's estimates, and
// after a Merge, Recost of the previous plan must equal the new plan
// whenever the planner picks the same tree again.
func FuzzRecostMatchesPlanner(f *testing.F) {
	cat := chainCatalog(f, 6, 300)
	f.Add(uint8(4), uint32(0o333333), uint8(0), int64(1))      // 6-chain, index filters on k
	f.Add(uint8(3), uint32(0o222222), uint8(2), int64(2))      // 5-chain, filters on v, GROUP BY
	f.Add(uint8(0x0b), uint32(0o654321), uint8(200), int64(3)) // 3-star, mixed filters, two group columns
	f.Add(uint8(0x0b), uint32(0o666), uint8(7), int64(6))      // 3-star, ranges on k, GROUP BY t02.k
	f.Add(uint8(0x34), uint32(0o777777), uint8(5), int64(4))   // 6-chain, randomized search, left-deep
	f.Add(uint8(0x1c), uint32(0), uint8(1), int64(5))          // 6-star, randomized search, no filters
	f.Fuzz(func(t *testing.T, shape uint8, filters uint32, groupBy uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(shape%5)
		cfg := DefaultConfig()
		cfg.BushyTrees = shape&0x20 == 0
		if shape&0x10 != 0 {
			cfg.DPThreshold = 2
		}
		q, err := sql.Parse(fuzzQuerySQL(rng, n, shape&0x08 != 0, filters, groupBy), cat)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := New(cat, cfg).Prepare(sql.NewGraph(q), nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pl.Plan()
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			sameNodes(t, q.String(), p, mustRecost(t, pl, p))
			delta := make([]SetRows, 1+rng.Intn(3))
			for i := range delta {
				mask := 1 + uint64(rng.Int63n(1<<uint(n)-1))
				rows := [...]float64{0, 10 * rng.Float64(), pl.StatCardinality(mask) * (0.1 + 10*rng.Float64()), 1e6 * rng.Float64()}[rng.Intn(4)]
				delta[i] = SetRows{Mask: mask, Rows: rows}
			}
			pl.Merge(delta)
			next, err := pl.Plan()
			if err != nil {
				t.Fatal(err)
			}
			if next.Fingerprint() == p.Fingerprint() {
				sameNodes(t, q.String()+" (previous plan after Merge)", next, mustRecost(t, pl, p))
			}
			p = next
		}
	})
}

// fuzzQuerySQL renders a query over t01..tn joined on k as a chain or a
// star around t01. Three bits of filters pick each table's local filter;
// a non-zero groupBy groups by one column, or two above 127.
func fuzzQuerySQL(rng *rand.Rand, n int, star bool, filters uint32, groupBy uint8) string {
	var from, where []string
	for i := 1; i <= n; i++ {
		from = append(from, tname(i))
		c := rng.Intn(60)
		switch (filters >> (3 * uint(i-1))) & 7 {
		case 2:
			where = append(where, fmt.Sprintf("%s.v = %d", tname(i), c%12))
		case 3:
			where = append(where, fmt.Sprintf("%s.k = %d", tname(i), c))
		case 4:
			where = append(where, fmt.Sprintf("%s.v BETWEEN %d AND %d", tname(i), c%12, c%12+3))
		case 5:
			where = append(where, fmt.Sprintf("%s.k = %d AND %s.v = %d", tname(i), c, tname(i), c%12))
		case 6:
			where = append(where, fmt.Sprintf("%s.k BETWEEN %d AND %d", tname(i), c, c+5))
		case 7:
			where = append(where, fmt.Sprintf("%s.v <> %d", tname(i), c%12))
		}
		if i > 1 {
			other := i - 1
			if star {
				other = 1
			}
			where = append(where, fmt.Sprintf("%s.k = %s.k", tname(other), tname(i)))
		}
	}
	src := "SELECT COUNT(*) FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
	if groupBy != 0 {
		cols := []string{"v", "k"}
		src += fmt.Sprintf(" GROUP BY %s.%s", tname(1+int(groupBy)%n), cols[groupBy/2%2])
		if groupBy > 127 {
			src += fmt.Sprintf(", %s.v", tname(1+int(groupBy/3)%n))
		}
	}
	return src
}

func mustRecost(t *testing.T, pl *Planner, p *plan.Plan) *plan.Plan {
	t.Helper()
	rp, err := pl.Recost(p)
	if err != nil {
		t.Fatalf("recost %s: %v", p.Fingerprint(), err)
	}
	return rp
}

// sameNodes requires two plans of one shape to carry bit-identical Rows
// and CostVal at every node.
func sameNodes(t *testing.T, label string, want, got *plan.Plan) {
	t.Helper()
	if want.Fingerprint() != got.Root.Fingerprint() {
		t.Fatalf("%s: trees differ:\n%s\n%s", label, want.Fingerprint(), got.Root.Fingerprint())
	}
	var ws, gs []plan.Node
	plan.Walk(want.Root, func(n plan.Node) { ws = append(ws, n) })
	plan.Walk(got.Root, func(n plan.Node) { gs = append(gs, n) })
	for i := range ws {
		if ws[i].EstRows() != gs[i].EstRows() || ws[i].Cost() != gs[i].Cost() {
			t.Errorf("%s: node %d %s: planner rows=%v cost=%v, Recost rows=%v cost=%v",
				label, i, ws[i].Fingerprint(), ws[i].EstRows(), ws[i].Cost(), gs[i].EstRows(), gs[i].Cost())
		}
	}
}
