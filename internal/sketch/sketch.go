// Package sketch implements Fast-AGMS sketches for join-size estimation
// (Alon et al. [4]; Rusu and Dobra [34] in the paper's related work) —
// the third estimator family the paper positions against histograms and
// samples. A sketch summarizes the frequency vector of a join column
// with d independent rows of w signed counters; the dot product of two
// relations' sketch rows is an unbiased estimate of their equi-join
// size, and the median over rows controls the variance.
//
// Like sampling (and unlike histograms), sketches of *filtered*
// relations capture correlation between the filter and the join column;
// like sampling, building one per candidate predicate is what makes
// them too expensive to use for every plan the optimizer explores —
// which is exactly the feasibility argument (§1) for the paper's
// post-processing design.
package sketch

import (
	"fmt"

	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
)

// AGMS is a Fast-AGMS sketch: depth rows of width signed counters.
type AGMS struct {
	depth, width int
	counters     [][]float64
	seeds        []uint64
}

// New returns an empty sketch. Typical sizes: depth 5-7, width 128-1024.
func New(depth, width int, seed int64) (*AGMS, error) {
	if depth < 1 || width < 1 {
		return nil, fmt.Errorf("sketch: depth and width must be positive")
	}
	s := &AGMS{depth: depth, width: width}
	s.counters = make([][]float64, depth)
	s.seeds = make([]uint64, depth)
	for i := range s.counters {
		s.counters[i] = make([]float64, width)
		s.seeds[i] = splitmix(uint64(seed) + uint64(i)*0x9E3779B97F4A7C15)
	}
	return s, nil
}

// Add folds one join-column value into the sketch. NULLs never join and
// are skipped.
func (s *AGMS) Add(v rel.Value) {
	if v.IsNull() {
		return
	}
	h := hashValue(v)
	for i := 0; i < s.depth; i++ {
		m := mix(h, s.seeds[i])
		bucket := int(m % uint64(s.width))
		sign := 1.0
		if (m>>32)&1 == 1 {
			sign = -1
		}
		s.counters[i][bucket] += sign
	}
}

// JoinSize estimates |A ⋈ B| from two compatible sketches as the median
// over rows of the per-row counter dot products.
func JoinSize(a, b *AGMS) (float64, error) {
	if a.depth != b.depth || a.width != b.width {
		return 0, fmt.Errorf("sketch: incompatible dimensions %dx%d vs %dx%d",
			a.depth, a.width, b.depth, b.width)
	}
	for i := range a.seeds {
		if a.seeds[i] != b.seeds[i] {
			return 0, fmt.Errorf("sketch: sketches built with different seeds")
		}
	}
	dots := make([]float64, a.depth)
	for i := 0; i < a.depth; i++ {
		d := 0.0
		for j := 0; j < a.width; j++ {
			d += a.counters[i][j] * b.counters[i][j]
		}
		dots[i] = d
	}
	return median(dots), nil
}

// SelfJoinSize estimates the second frequency moment F2 of the sketched
// column (the self-join size of [4]).
func (s *AGMS) SelfJoinSize() float64 {
	dots := make([]float64, s.depth)
	for i := 0; i < s.depth; i++ {
		d := 0.0
		for j := 0; j < s.width; j++ {
			d += s.counters[i][j] * s.counters[i][j]
		}
		dots[i] = d
	}
	return median(dots)
}

// SketchColumn builds a sketch over table's column, keeping only rows
// that satisfy the filters (so correlations between the filters and the
// join column are captured, as with sampling).
func SketchColumn(t *storage.Table, column string, filters []sql.Selection, depth, width int, seed int64) (*AGMS, error) {
	pos, err := t.Schema().IndexOf("", column)
	if err != nil {
		return nil, err
	}
	fidx := make([]int, len(filters))
	for i, f := range filters {
		j, err := t.Schema().IndexOf("", f.Col.Column)
		if err != nil {
			return nil, err
		}
		fidx[i] = j
	}
	s, err := New(depth, width, seed)
	if err != nil {
		return nil, err
	}
	cs := t.ColData()
rows:
	for r := range t.NumRows() {
		for i, f := range filters {
			if !sql.EvalSelection(cs.Col(fidx[i]).Value(r), f) {
				continue rows
			}
		}
		s.Add(cs.Col(pos).Value(r))
	}
	return s, nil
}

func median(xs []float64) float64 {
	// Insertion sort; depth is tiny.
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hashValue maps a value to a 64-bit hash through its canonical key.
func hashValue(v rel.Value) uint64 {
	var h uint64 = 14695981039346656037
	str := v.String()
	for i := 0; i < len(str); i++ {
		h ^= uint64(str[i])
		h *= 1099511628211
	}
	return h
}

// mix combines a value hash with a per-row seed (splitmix64 finalizer).
func mix(h, seed uint64) uint64 { return splitmix(h ^ seed) }

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
