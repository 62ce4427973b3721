package stats

import (
	"fmt"

	"reopt/internal/rel"
	"reopt/internal/storage"
)

// Hist2D is a two-dimensional equi-width histogram over a pair of integer
// columns, used to reproduce the paper's §5.3.1 (Example 2) analysis: even
// a multidimensional histogram assumes uniformity *inside* each bucket,
// so it cannot distinguish the empty OTT join combinations from the
// non-empty ones unless the buckets degenerate to single points.
type Hist2D struct {
	Table   string
	ColA    string
	ColB    string
	NumRows int

	loA, hiA int64
	loB, hiB int64
	bucketsA int
	bucketsB int
	counts   []int // bucketsA x bucketsB, row-major
}

// BuildHist2D scans the table and builds a bucketsA x bucketsB equi-width
// histogram over integer columns colA and colB.
func BuildHist2D(t *storage.Table, colA, colB string, bucketsA, bucketsB int) (*Hist2D, error) {
	if bucketsA <= 0 || bucketsB <= 0 {
		return nil, fmt.Errorf("stats: hist2d bucket counts must be positive")
	}
	posA, err := t.Schema().IndexOf(t.Name(), colA)
	if err != nil {
		return nil, err
	}
	posB, err := t.Schema().IndexOf(t.Name(), colB)
	if err != nil {
		return nil, err
	}
	h := &Hist2D{
		Table:    t.Name(),
		ColA:     colA,
		ColB:     colB,
		NumRows:  t.NumRows(),
		bucketsA: bucketsA,
		bucketsB: bucketsB,
		counts:   make([]int, bucketsA*bucketsB),
	}
	if h.NumRows == 0 {
		return h, nil // empty table
	}
	ca, cb := t.ColData().Col(posA), t.ColData().Col(posB)
	if ca.Kind != rel.KindInt || cb.Kind != rel.KindInt || ca.Nulls != nil || cb.Nulls != nil {
		return nil, fmt.Errorf("stats: hist2d requires integer columns")
	}
	first := true
	for i, ai := range ca.Ints {
		bi := cb.Ints[i]
		if first {
			h.loA, h.hiA, h.loB, h.hiB = ai, ai, bi, bi
			first = false
			continue
		}
		if ai < h.loA {
			h.loA = ai
		}
		if ai > h.hiA {
			h.hiA = ai
		}
		if bi < h.loB {
			h.loB = bi
		}
		if bi > h.hiB {
			h.hiB = bi
		}
	}
	for i, ai := range ca.Ints {
		ba := h.bucketA(ai)
		bb := h.bucketB(cb.Ints[i])
		h.counts[ba*h.bucketsB+bb]++
	}
	return h, nil
}

func (h *Hist2D) bucketA(v int64) int { return bucketOf(v, h.loA, h.hiA, h.bucketsA) }
func (h *Hist2D) bucketB(v int64) int { return bucketOf(v, h.loB, h.hiB, h.bucketsB) }

func bucketOf(v, lo, hi int64, n int) int {
	if hi == lo {
		return 0
	}
	b := int((v - lo) * int64(n) / (hi - lo + 1))
	if b < 0 {
		b = 0
	}
	if b >= n {
		b = n - 1
	}
	return b
}

func (h *Hist2D) bucketWidthA() float64 {
	return float64(h.hiA-h.loA+1) / float64(h.bucketsA)
}

func (h *Hist2D) bucketWidthB() float64 {
	return float64(h.hiB-h.loB+1) / float64(h.bucketsB)
}

// SelEqualsA estimates Pr(A = a) under in-bucket uniformity.
func (h *Hist2D) SelEqualsA(a int64) float64 {
	if h.NumRows == 0 {
		return 0
	}
	ba := h.bucketA(a)
	total := 0
	for bb := 0; bb < h.bucketsB; bb++ {
		total += h.counts[ba*h.bucketsB+bb]
	}
	return float64(total) / float64(h.NumRows) / h.bucketWidthA()
}

// CondBDist returns the estimated distribution of B conditioned on A = a,
// as per-bucket probabilities under in-bucket uniformity. This is what a
// 2-D-histogram-equipped optimizer would use to estimate the join
// selectivity of B against another relation after the selection A = a.
func (h *Hist2D) CondBDist(a int64) []float64 {
	ba := h.bucketA(a)
	rowTotal := 0
	for bb := 0; bb < h.bucketsB; bb++ {
		rowTotal += h.counts[ba*h.bucketsB+bb]
	}
	out := make([]float64, h.bucketsB)
	if rowTotal == 0 {
		return out
	}
	for bb := 0; bb < h.bucketsB; bb++ {
		out[bb] = float64(h.counts[ba*h.bucketsB+bb]) / float64(rowTotal)
	}
	return out
}

// EstimateOTTJoinSel estimates the selectivity of the OTT two-table query
//
//	σ(A1=a1 ∧ A2=a2 ∧ B1=B2)(R1 × R2)
//
// using two 2-D histograms, assuming in-bucket uniformity. Per Example 2
// of the paper, this estimate is identical for a1 = a2 (non-empty result)
// and a1 ≠ a2 within the same bucket pair (empty result), demonstrating
// that the histogram cannot expose the correlation.
func EstimateOTTJoinSel(h1, h2 *Hist2D, a1, a2 int64) float64 {
	// Pr(A1=a1, B1 in bucket) x Pr(A2=a2, B2 in bucket) x Pr(B1=B2 | buckets).
	selA1 := h1.SelEqualsA(a1)
	selA2 := h2.SelEqualsA(a2)
	dist1 := h1.CondBDist(a1)
	dist2 := h2.CondBDist(a2)
	wB := h1.bucketWidthB()
	if h2.bucketWidthB() > wB {
		wB = h2.bucketWidthB()
	}
	match := 0.0
	n := len(dist1)
	if len(dist2) < n {
		n = len(dist2)
	}
	for b := 0; b < n; b++ {
		// Two values uniform in the same width-w bucket are equal with
		// probability 1/w.
		if wB > 0 {
			match += dist1[b] * dist2[b] / wB
		}
	}
	return selA1 * selA2 * match
}
