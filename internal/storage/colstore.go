package storage

import (
	"cmp"
	"math"
	"strings"

	"reopt/internal/rel"
	"reopt/internal/vec"
)

// ColStore is a column-major projection of a table: each column whose
// non-null values share one kind is stored as a typed slice ([]int64,
// []float64, or []string), so predicate evaluation and key hashing over
// it run as tight typed loops with no per-row Value construction. It is
// the storage format the count-only sample-skeleton engine scans;
// samples are immutable once built, so the projection is computed once
// and cached on the table.
type ColStore struct {
	numRows int
	cols    []ColData
}

// ColData holds one column. Exactly one of the typed slices is populated
// when Kind is a scalar kind; Vals is the row-major fallback for columns
// that mix kinds (Kind == KindNull), which keeps the engine total.
type ColData struct {
	// Kind is the uniform kind of the column's non-null values, or
	// KindNull when the column mixes kinds and Vals must be used.
	Kind   rel.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	// Nulls marks NULL positions (typed slices hold zero values there);
	// nil when the column has no NULLs.
	Nulls []bool
	// NullWords is the same NULL marking as a bitmap (one bit per row,
	// vec.Bitmap word layout), prebuilt so the vectorized predicate
	// kernels can mask NULLs with word-wise AND-NOT instead of a per-row
	// check. nil when Nulls is nil. Every column a filter is compiled
	// against carries it (BuildNullWords); columns the skeleton engine
	// only carries between operators and never filters leave it unbuilt.
	NullWords []uint64
	// Vals is set only for mixed-kind columns.
	Vals []rel.Value
	// idx is the column's lazily built sorted index (IndexRows); nil for
	// columns too small or not int64, and for every column no ColStore
	// owns.
	idx *sortedIndex
}

// IsNull reports whether row i of the column is NULL.
func (c *ColData) IsNull(i int) bool {
	if c.Kind == rel.KindNull {
		return c.Vals[i].IsNull()
	}
	return c.Nulls != nil && c.Nulls[i]
}

// Value reconstructs the Value at row i.
func (c *ColData) Value(i int) rel.Value {
	if c.IsNull(i) {
		return rel.Null
	}
	switch c.Kind {
	case rel.KindInt:
		return rel.Int(c.Ints[i])
	case rel.KindFloat:
		return rel.Float(c.Floats[i])
	case rel.KindString:
		return rel.String_(c.Strs[i])
	default:
		return c.Vals[i]
	}
}

// NewLike allocates an n-row column shaped like c: same kind, the same
// typed slice (Vals for a mixed-kind column), and a Nulls marking exactly
// when c carries one. It is how the skeleton engine sizes the columns it
// carries between operators: exactly, once, and — except for strings and
// mixed-kind columns — without pointers for the collector to clear or
// scan.
func (c *ColData) NewLike(n int) ColData {
	dst := ColData{Kind: c.Kind}
	switch {
	case c.Vals != nil:
		dst.Vals = make([]rel.Value, n)
		return dst
	case c.Kind == rel.KindFloat:
		dst.Floats = make([]float64, n)
	case c.Kind == rel.KindString:
		dst.Strs = make([]string, n)
	default:
		dst.Ints = make([]int64, n)
	}
	if c.Nulls != nil {
		dst.Nulls = make([]bool, n)
	}
	return dst
}

// Gather copies src rows sel[lo:hi) into c at destination offset off:
// selection entry x lands at row off+x, typed payload and NULL flag
// both. c must be shaped like src (NewLike). Concurrent calls may fill
// disjoint destination ranges of one column; NullWords is not
// maintained — see BuildNullWords.
func (c *ColData) Gather(src *ColData, sel []int32, lo, hi, off int) {
	sel = sel[lo:hi]
	switch {
	case src.Vals != nil:
		out := c.Vals[off+lo : off+hi]
		for x, r := range sel {
			out[x] = src.Vals[r]
		}
		return
	case src.Kind == rel.KindFloat:
		out := c.Floats[off+lo : off+hi]
		for x, r := range sel {
			out[x] = src.Floats[r]
		}
	case src.Kind == rel.KindString:
		out := c.Strs[off+lo : off+hi]
		for x, r := range sel {
			out[x] = src.Strs[r]
		}
	default:
		out := c.Ints[off+lo : off+hi]
		for x, r := range sel {
			out[x] = src.Ints[r]
		}
	}
	if src.Nulls != nil {
		out := c.Nulls[off+lo : off+hi]
		for x, r := range sel {
			out[x] = src.Nulls[r]
		}
	}
}

// slice is rows [a, b) of the column as a view sharing its storage, with
// no NullWords and no index.
func (c *ColData) slice(a, b int) ColData {
	v := ColData{Kind: c.Kind}
	switch {
	case c.Vals != nil:
		v.Vals = c.Vals[a:b:b]
	case c.Kind == rel.KindFloat:
		v.Floats = c.Floats[a:b:b]
	case c.Kind == rel.KindString:
		v.Strs = c.Strs[a:b:b]
	default:
		v.Ints = c.Ints[a:b:b]
	}
	if c.Nulls != nil {
		v.Nulls = c.Nulls[a:b:b]
	}
	return v
}

// BuildNullWords derives NullWords from Nulls over the whole column (a
// no-op without NULL marking). Single writer: adjacent rows share a word.
func (c *ColData) BuildNullWords() {
	if c.Nulls == nil {
		return
	}
	c.NullWords = make([]uint64, vec.NumWords(len(c.Nulls)))
	for i, null := range c.Nulls {
		if null {
			c.NullWords[i/vec.WordBits] |= 1 << (uint(i) % vec.WordBits)
		}
	}
}

// HashAt folds row i's value into the running rel hash h, straight from
// the typed slice: the same hash rel.Value.Hash64 produces for
// c.Value(i), so an integer and a float column holding the same number
// land in the same bucket. Row i must not be NULL.
func (c *ColData) HashAt(h uint64, i int) uint64 {
	switch c.Kind {
	case rel.KindInt:
		return rel.HashInt64(h, c.Ints[i])
	case rel.KindFloat:
		return rel.HashFloat64(h, c.Floats[i])
	case rel.KindString:
		return rel.HashString(h, c.Strs[i])
	default:
		return c.Vals[i].Hash64(h)
	}
}

// EqualAt reports rel.Value.Equal between row i of c and row j of o,
// comparing typed payloads when both columns share a kind and
// reconstructing Values only across kinds (int vs float widens; a
// mixed-kind column decides per row). Neither row may be NULL.
func (c *ColData) EqualAt(i int, o *ColData, j int) bool {
	if c.Kind == o.Kind {
		switch c.Kind {
		case rel.KindInt:
			return c.Ints[i] == o.Ints[j]
		case rel.KindFloat:
			a, b := c.Floats[i], o.Floats[j]
			return a == b || a != a && b != b // Equal's float semantics: NaN equals NaN only
		case rel.KindString:
			return c.Strs[i] == o.Strs[j]
		}
	}
	return c.Value(i).Equal(o.Value(j))
}

// IdentHashAt folds row i's *representation* into h: a NULL as itself, a
// float by bit pattern (-0.0 and 0.0, and NaN payloads, apart) — finer
// than HashAt, which follows Value.Equal. Not for mixed-kind columns.
func (c *ColData) IdentHashAt(h uint64, i int) uint64 {
	switch {
	case c.Nulls != nil && c.Nulls[i]:
		return rel.HashInt64(h^1, 0)
	case c.Kind == rel.KindFloat:
		return rel.HashInt64(h, int64(math.Float64bits(c.Floats[i])))
	case c.Kind == rel.KindString:
		return rel.HashString(h, c.Strs[i])
	}
	return rel.HashInt64(h, c.Ints[i])
}

// IdentAt reports whether rows i and j of the column hold the identical
// representation (the equality IdentHashAt hashes for): NULL with NULL,
// floats by bit pattern. Not for mixed-kind columns.
func (c *ColData) IdentAt(i, j int) bool {
	switch ni, nj := c.IsNull(i), c.IsNull(j); {
	case ni || nj:
		return ni == nj
	case c.Kind == rel.KindFloat:
		return math.Float64bits(c.Floats[i]) == math.Float64bits(c.Floats[j])
	case c.Kind == rel.KindString:
		return c.Strs[i] == c.Strs[j]
	}
	return c.Ints[i] == c.Ints[j]
}

// NumRows returns the row count.
func (cs *ColStore) NumRows() int { return cs.numRows }

// Col returns the column at schema position pos.
func (cs *ColStore) Col(pos int) *ColData { return &cs.cols[pos] }

// compare orders non-NULL rows i and j of the column as Value.Compare
// orders their values, reading the typed slice.
func (c *ColData) compare(i, j int) int {
	switch c.Kind {
	case rel.KindInt:
		return cmp.Compare(c.Ints[i], c.Ints[j])
	case rel.KindFloat:
		return rel.Float(c.Floats[i]).Compare(rel.Float(c.Floats[j]))
	case rel.KindString:
		return strings.Compare(c.Strs[i], c.Strs[j])
	}
	return c.Vals[i].Compare(c.Vals[j])
}

// BuildColStore computes the column-major projection of a table.
func BuildColStore(t *Table) *ColStore {
	cs := &ColStore{numRows: t.NumRows(), cols: make([]ColData, t.Schema().Len())}
	for pos := range cs.cols {
		col := &cs.cols[pos]
		*col = buildColumn(t.rows, pos)
		col.BuildNullWords()
		col.attachIndex(cs.cols)
	}
	return cs
}

// buildColumn projects column pos of rows into a ColData, without the
// NullWords and index a ColStore adds.
func buildColumn(rows []rel.Row, pos int) ColData {
	n := len(rows)
	// One pass to find the uniform non-null kind, if any.
	kind := rel.KindNull
	mixed := false
	hasNull := false
	for _, row := range rows {
		v := row[pos]
		if v.IsNull() {
			hasNull = true
			continue
		}
		if kind == rel.KindNull {
			kind = v.Kind()
		} else if v.Kind() != kind {
			mixed = true
			break
		}
	}
	if mixed {
		col := ColData{Kind: rel.KindNull, Vals: make([]rel.Value, n)}
		for i, row := range rows {
			col.Vals[i] = row[pos]
		}
		return col
	}
	col := ColData{Kind: kind}
	if hasNull {
		col.Nulls = make([]bool, n)
	}
	switch kind {
	case rel.KindInt:
		col.Ints = make([]int64, n)
	case rel.KindFloat:
		col.Floats = make([]float64, n)
	case rel.KindString:
		col.Strs = make([]string, n)
	default:
		// All-NULL (or empty) column: Nulls (already allocated when any
		// row is NULL) plus a zero Ints slice keeps accessors total.
		col.Kind = rel.KindInt
		col.Ints = make([]int64, n)
	}
	for i, row := range rows {
		v := row[pos]
		if v.IsNull() {
			col.Nulls[i] = true
			continue
		}
		switch col.Kind {
		case rel.KindInt:
			col.Ints[i] = v.AsInt()
		case rel.KindFloat:
			col.Floats[i] = v.AsFloat()
		case rel.KindString:
			col.Strs[i] = v.AsString()
		}
	}
	return col
}
