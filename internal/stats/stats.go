// Package stats implements PostgreSQL-style table statistics and
// selectivity estimation: per-column n_distinct, most-common-value (MCV)
// lists with exact frequencies, and equi-depth histograms over the
// remaining values (mirroring pg_stats), plus the estimation rules the
// paper describes in §4.2.1 — MCV hits use recorded frequencies, misses
// assume uniformity over the non-MCV distinct values, equi-join
// selectivity uses the System-R 1/max(ndv) rule refined by joining the
// two MCV lists, and conjunctions combine under the attribute-value-
// independence (AVI) assumption.
//
// The package also provides 2-D equi-width histograms used to reproduce
// the paper's §5.3.1 argument that even multidimensional histograms
// cannot detect the OTT correlation.
package stats

import (
	"cmp"
	"fmt"
	"slices"

	"reopt/internal/rel"
	"reopt/internal/storage"
)

// DefaultTarget is the statistics target: the maximum MCV list length and
// histogram bucket count, matching PostgreSQL's default_statistics_target.
const DefaultTarget = 100

// MCVEntry is one most-common value and its relative frequency.
type MCVEntry struct {
	Value rel.Value
	// Freq is the fraction of table rows equal to Value.
	Freq float64
}

// ColumnStats holds the statistics for a single column, the analog of a
// pg_stats row.
type ColumnStats struct {
	Table  string
	Column string

	// NumRows is the table row count at ANALYZE time.
	NumRows int
	// NullFrac is the fraction of NULL values.
	NullFrac float64
	// NumDistinct is the number of distinct non-null values.
	NumDistinct int
	// MCV lists the most common values, most frequent first.
	MCV []MCVEntry
	// Hist is an equi-depth histogram over the non-MCV values; nil when
	// every distinct value made it into the MCV list.
	Hist *Histogram

	mcvFreqSum float64
	mcvIndex   map[rel.ValueKey]float64
}

// MCVFreqSum returns the total frequency mass captured by the MCV list.
func (cs *ColumnStats) MCVFreqSum() float64 { return cs.mcvFreqSum }

// MCVFreq returns the recorded frequency of v and whether v is an MCV.
func (cs *ColumnStats) MCVFreq(v rel.Value) (float64, bool) {
	f, ok := cs.mcvIndex[v.Key()]
	return f, ok
}

// Histogram is an equi-depth histogram: Bounds has NumBuckets+1 entries
// and each bucket [Bounds[i], Bounds[i+1]) holds approximately the same
// number of the values it was built over.
type Histogram struct {
	Bounds []rel.Value
	// TotalFrac is the fraction of table rows the histogram covers (rows
	// that are neither NULL nor MCVs).
	TotalFrac float64
}

// NumBuckets returns the bucket count.
func (h *Histogram) NumBuckets() int {
	if h == nil || len(h.Bounds) < 2 {
		return 0
	}
	return len(h.Bounds) - 1
}

// AnalyzeOptions tunes statistics collection.
type AnalyzeOptions struct {
	// Target caps MCV length and histogram buckets; 0 means DefaultTarget.
	Target int
	// MCVMinCount is the minimum occurrence count for a value to be
	// considered "common"; 0 means 2 (values seen once never enter the
	// MCV list, as in PostgreSQL's heuristic).
	MCVMinCount int
}

// AnalyzeColumn computes full-scan statistics for one column of a table.
// Unlike PostgreSQL, which samples, we scan the whole (in-memory) table:
// statistics are exact, which makes the remaining estimation errors
// attributable purely to the estimation model (AVI, uniformity), exactly
// the errors the paper studies.
//
// It reads the column's sorted permutation (storage.Table.ColumnRuns) as
// runs of equal values: the run count is NumDistinct, a run's length its
// value's frequency, and its first row — the value's first occurrence in
// heap order — the exemplar an MCV entry or histogram bound holds.
func AnalyzeColumn(t *storage.Table, pos int, opts AnalyzeOptions) *ColumnStats {
	target := opts.Target
	if target <= 0 {
		target = DefaultTarget
	}
	minCount := opts.MCVMinCount
	if minCount <= 0 {
		minCount = 2
	}

	col := t.Schema().Columns[pos]
	cs := &ColumnStats{
		Table:    col.Table,
		Column:   col.Name,
		NumRows:  t.NumRows(),
		mcvIndex: make(map[rel.ValueKey]float64),
	}
	if cs.NumRows == 0 {
		return cs
	}

	ids, runs := t.ColumnRuns(pos)
	numRuns := len(runs) - 1
	runLen := func(r int) int { return runs[r+1] - runs[r] }
	data := t.ColData().Col(pos)
	value := func(r int) rel.Value { return data.Value(int(ids[runs[r]])) }
	cs.NullFrac = float64(cs.NumRows-len(ids)) / float64(cs.NumRows)
	cs.NumDistinct = numRuns

	// MCV list: the up-to-target most frequent values with count >=
	// minCount, ties in ascending value order — which is run order. A
	// count of runs by length finds the cut: every run longer than it
	// makes the list, and the first room runs of exactly that length.
	// Only the chosen runs are sorted.
	maxLen := 0
	for r := range numRuns {
		maxLen = max(maxLen, runLen(r))
	}
	byLen := make([]int, maxLen+1)
	for r := range numRuns {
		byLen[runLen(r)]++
	}
	cut, room := maxLen, target
	for ; cut > minCount && byLen[cut] < room; cut-- {
		room -= byLen[cut]
	}
	var common []int
	for r := range numRuns {
		switch n := runLen(r); {
		case n < minCount:
		case n > cut:
			common = append(common, r)
		case n == cut && room > 0:
			common = append(common, r)
			room--
		}
	}
	slices.SortStableFunc(common, func(a, b int) int { return cmp.Compare(runLen(b), runLen(a)) })
	isMCV := make([]bool, numRuns)
	rest := len(ids) // non-NULL, non-MCV rows
	for _, r := range common {
		v := value(r)
		f := float64(runLen(r)) / float64(cs.NumRows)
		cs.MCV = append(cs.MCV, MCVEntry{Value: v, Freq: f})
		cs.mcvIndex[v.Key()] = f
		cs.mcvFreqSum += f
		isMCV[r] = true
		rest -= runLen(r)
	}

	// Equi-depth histogram over the non-MCV values: bound b is the value
	// at position b*(rest-1)/buckets of their sorted sequence, which is
	// the non-MCV runs in order.
	if rest == 0 {
		return cs
	}
	buckets := min(target, rest)
	bounds := make([]rel.Value, 0, buckets+1)
	b, seen := 0, 0
	for r := range numRuns {
		if isMCV[r] {
			continue
		}
		for seen += runLen(r); b <= buckets && b*(rest-1)/buckets < seen; b++ {
			bounds = append(bounds, value(r))
		}
	}
	cs.Hist = &Histogram{Bounds: bounds, TotalFrac: float64(rest) / float64(cs.NumRows)}
	return cs
}

// TableStats aggregates column statistics for one table.
type TableStats struct {
	Table   string
	NumRows int
	NumPage int
	Columns map[string]*ColumnStats
}

// Analyze computes statistics for every column of the table (the ANALYZE
// command).
func Analyze(t *storage.Table, opts AnalyzeOptions) *TableStats {
	ts := &TableStats{
		Table:   t.Name(),
		NumRows: t.NumRows(),
		NumPage: t.NumPages(),
		Columns: make(map[string]*ColumnStats, t.Schema().Len()),
	}
	for pos, col := range t.Schema().Columns {
		ts.Columns[col.Name] = AnalyzeColumn(t, pos, opts)
	}
	return ts
}

// Column returns the stats for the named column or an error.
func (ts *TableStats) Column(name string) (*ColumnStats, error) {
	cs, ok := ts.Columns[name]
	if !ok {
		return nil, fmt.Errorf("stats: no statistics for %s.%s", ts.Table, name)
	}
	return cs, nil
}
