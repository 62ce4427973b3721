// Package catalog is the system catalog: it owns the database's tables,
// their collected statistics, and the per-table samples used by the
// sampling-based estimator. Every higher layer (parser, optimizer,
// executor, re-optimizer) resolves names through the catalog.
package catalog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"reopt/internal/stats"
	"reopt/internal/storage"
)

// DefaultSampleRatio is the sampling ratio used throughout the paper's
// experiments (5%, per §5.1.1).
const DefaultSampleRatio = 0.05

// DefaultMinSampleRows is the minimum target sample size per table: for
// tables where ratio*|T| would fall below it, the effective sampling
// ratio is raised (up to a full copy). A fixed percentage of a tiny
// table (the paper's 25-row nation at 5% would be ~1 row) carries no
// statistical signal; production samplers use fixed-size or floor-size
// samples for exactly this reason.
const DefaultMinSampleRows = 600

// Catalog is an in-memory database: named tables plus derived artifacts.
type Catalog struct {
	tables  map[string]*storage.Table
	stats   map[string]*stats.TableStats
	samples map[string]*storage.Table

	// joinSel memoizes stats.JoinSelectivity per (left, right) pair of
	// published column statistics: [2]*stats.ColumnStats -> float64.
	joinSel sync.Map

	sampleRatio   float64
	minSampleRows int
	sampleEpoch   uint64
}

// sampleEpochCounter issues process-wide unique sample epochs. Epochs
// are unique across catalogs, not just within one, so a validation
// cache keyed by epoch can never confuse two catalogs' samples (e.g.
// the uniform and skewed TPC-H databases share table names and query
// shapes but hold different data).
var sampleEpochCounter atomic.Uint64

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:        make(map[string]*storage.Table),
		stats:         make(map[string]*stats.TableStats),
		samples:       make(map[string]*storage.Table),
		sampleRatio:   DefaultSampleRatio,
		minSampleRows: DefaultMinSampleRows,
	}
}

// AddTable registers a table. Re-registering a name is an error.
func (c *Catalog) AddTable(t *storage.Table) error {
	if _, ok := c.tables[t.Name()]; ok {
		return fmt.Errorf("catalog: table %q already exists", t.Name())
	}
	c.tables[t.Name()] = t
	return nil
}

// MustAddTable is AddTable for setup code.
func (c *Catalog) MustAddTable(t *storage.Table) {
	if err := c.AddTable(t); err != nil {
		panic(err)
	}
}

// Table resolves a table name.
func (c *Catalog) Table(name string) (*storage.Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return t, nil
}

// TableNames returns all table names, sorted.
func (c *Catalog) TableNames() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Analyze collects statistics for one table (the ANALYZE command).
func (c *Catalog) Analyze(name string, opts stats.AnalyzeOptions) error {
	t, err := c.Table(name)
	if err != nil {
		return err
	}
	c.stats[name] = stats.Analyze(t, opts)
	c.joinSel.Clear()
	return nil
}

// AnalyzeAll collects statistics for every table.
func (c *Catalog) AnalyzeAll(opts stats.AnalyzeOptions) error {
	for name := range c.tables {
		if err := c.Analyze(name, opts); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns the statistics for a table, or nil if ANALYZE has not
// been run (the optimizer then falls back to default selectivities,
// exactly as PostgreSQL does for never-analyzed tables).
func (c *Catalog) Stats(name string) *stats.TableStats { return c.stats[name] }

// CopyStats registers externally computed statistics for a table,
// allowing derived catalogs (e.g. the mid-query re-optimizer's
// workspace) to reuse an existing ANALYZE pass.
func (c *Catalog) CopyStats(name string, ts *stats.TableStats) {
	c.stats[name] = ts
	c.joinSel.Clear()
}

// ColumnStats returns statistics for one column, or nil.
func (c *Catalog) ColumnStats(table, column string) *stats.ColumnStats {
	ts := c.stats[table]
	if ts == nil {
		return nil
	}
	return ts.Columns[column]
}

// JoinSelectivity is stats.JoinSelectivity, computed once per pair of
// column statistics this catalog published (ColumnStats) and remembered:
// it is a pure function of the two, and they are immutable once
// published. A re-Analyze publishes new pointers, which no remembered
// pair can equal; the memo is dropped then only to free the old ones.
// Safe for concurrent use.
func (c *Catalog) JoinSelectivity(left, right *stats.ColumnStats) float64 {
	key := [2]*stats.ColumnStats{left, right}
	if sel, ok := c.joinSel.Load(key); ok {
		return sel.(float64)
	}
	sel := stats.JoinSelectivity(left, right)
	c.joinSel.Store(key, sel)
	return sel
}

// SetSampleRatio overrides the Bernoulli sampling ratio for subsequently
// built samples.
func (c *Catalog) SetSampleRatio(r float64) {
	if r <= 0 || r > 1 {
		panic(fmt.Sprintf("catalog: sample ratio %v out of (0,1]", r))
	}
	c.sampleRatio = r
}

// SampleRatio returns the configured sampling ratio.
func (c *Catalog) SampleRatio() float64 { return c.sampleRatio }

// SetMinSampleRows overrides the per-table minimum sample size (0
// disables the floor).
func (c *Catalog) SetMinSampleRows(n int) { c.minSampleRows = n }

// EffectiveSampleRatio returns the ratio BuildSamples uses for a table
// of the given size: the configured ratio, raised as needed to target
// the minimum sample size, capped at 1 (full copy).
func (c *Catalog) EffectiveSampleRatio(tableRows int) float64 {
	r := c.sampleRatio
	if c.minSampleRows > 0 && tableRows > 0 {
		if floor := float64(c.minSampleRows) / float64(tableRows); floor > r {
			r = floor
		}
	}
	if r > 1 {
		r = 1
	}
	return r
}

// BuildSamples draws a Bernoulli sample of every table at the effective
// per-table ratio. Seeds are derived deterministically from the base
// seed and the table name so that results are reproducible regardless of
// map order.
func (c *Catalog) BuildSamples(seed int64) {
	// Every (re)build starts a fresh sample epoch: caches keyed by the
	// epoch (executor.SkeletonCache) are invalidated wholesale, so a
	// refreshed sample can never serve counts observed on its
	// predecessor — even when the seed is identical.
	c.sampleEpoch = sampleEpochCounter.Add(1)
	for name, t := range c.tables {
		r := c.EffectiveSampleRatio(t.NumRows())
		c.samples[name] = t.Sample(name+"_sample", r, seed^hashName(name))
	}
}

// Bytes is what a catalog's tables and samples hold in memory, by part.
type Bytes struct {
	// Tables is the base tables' typed columns and NULL marking.
	Tables int64
	// TableIndex is the base tables' secondary indexes: each one's
	// sorted permutation and runs, which full-ratio samples read too.
	TableIndex int64
	// Samples is what the samples' columns hold beyond what they share
	// with their tables: 0 for a full-ratio sample without NULLs.
	Samples int64
	// SampleIndex is the permutations and runs samples sorted themselves
	// so far: none on an indexed column of a full-ratio sample.
	SampleIndex int64
	// SampleCopies is the samples' ordered column copies built so far.
	SampleCopies int64
}

// Bytes measures the catalog's resident column data (string payloads
// aside). Safe to call while validations build sample indexes; not while
// tables are written.
func (c *Catalog) Bytes() Bytes {
	var b Bytes
	for name, t := range c.tables {
		b.Tables += t.ColumnBytes(nil)
		b.TableIndex += t.SecondaryIndexBytes()
		if s, ok := c.samples[name]; ok {
			b.Samples += s.ColumnBytes(t)
			perm, copies := s.IndexBytes()
			b.SampleIndex += perm
			b.SampleCopies += copies
		}
	}
	return b
}

// Sample returns the sample table for name, or an error if samples have
// not been built.
func (c *Catalog) Sample(name string) (*storage.Table, error) {
	s, ok := c.samples[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no sample for table %q (call BuildSamples)", name)
	}
	return s, nil
}

// HasSamples reports whether BuildSamples has run.
func (c *Catalog) HasSamples() bool { return len(c.samples) > 0 }

// SampleEpoch identifies the current sample set: it changes on every
// BuildSamples call and is unique across catalogs in the process.
// Workload-level validation caches namespace their entries by it, so
// counts observed on one sample set are never served against another.
func (c *Catalog) SampleEpoch() uint64 { return c.sampleEpoch }

func hashName(s string) int64 {
	// FNV-1a, inlined to keep the catalog dependency-free.
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}
