package storage

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"unsafe"

	"reopt/internal/rel"
	"reopt/internal/vec"
)

// ColStore is how a table holds its rows, column by column: each column
// whose non-null values share one kind is stored as a typed slice
// ([]int64, []float64, or []string), so predicate evaluation and key
// hashing over it run as tight typed loops with no per-row Value
// construction. Table.Append writes it in place; the count-only
// sample-skeleton engine scans a sample's store directly.
type ColStore struct {
	numRows int
	cols    []ColData
}

// ColData holds one column. Exactly one of the typed slices is populated
// when Kind is a scalar kind; Vals is the row-major fallback for columns
// that mix kinds (Kind == KindNull), which keeps the engine total. A
// column no non-NULL value has been written to yet (empty or all-NULL)
// is an int64 column of zeros.
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
	// against is a table's, which Append keeps it current for; columns
	// the skeleton engine only carries between operators and never
	// filters leave it unbuilt.
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
// both. c must be shaped like src (NewLike). NullWords is not
// maintained: only a table's columns are filtered.
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
// comparing typed payloads when both columns share a kind and deferring
// to rel.Value.Equal across kinds, which compares an int with a float
// exactly (a mixed-kind column decides per row). Neither row may be NULL.
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

// push writes v as row n of the column (n is its current length), the
// one step Table.Append and Table.Sample build columns by. The column
// keeps the kind of its non-NULL values; the first value of another kind
// retypes a column that holds only NULLs so far, and otherwise turns it
// mixed-kind for good, its cells moved into Vals. NULL marking (Nulls and
// NullWords) appears with the first NULL. The sorted index is not
// maintained here: see attachIndex.
func (c *ColData) push(v rel.Value, n int) {
	if c.Vals != nil {
		c.Vals = append(c.Vals, v)
		return
	}
	null := v.IsNull()
	if !null && v.Kind() != c.Kind {
		if n > 0 && (c.Nulls == nil || slices.Contains(c.Nulls, false)) {
			c.toMixed(n)
			c.Vals = append(c.Vals, v)
			return
		}
		c.retype(v.Kind(), n)
	}
	switch {
	case null:
		c.appendZero()
	case c.Kind == rel.KindInt:
		c.Ints = append(c.Ints, v.AsInt())
	case c.Kind == rel.KindFloat:
		c.Floats = append(c.Floats, v.AsFloat())
	default:
		c.Strs = append(c.Strs, v.AsString())
	}
	if null && c.Nulls == nil {
		c.Nulls = make([]bool, n, n+1)
		c.NullWords = make([]uint64, vec.NumWords(n))
	}
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, null)
		if n%vec.WordBits == 0 {
			c.NullWords = append(c.NullWords, 0)
		}
		if null {
			c.NullWords[n/vec.WordBits] |= 1 << (uint(n) % vec.WordBits)
		}
	}
}

// appendZero appends the zero payload a NULL row holds in the typed slice.
func (c *ColData) appendZero() {
	switch c.Kind {
	case rel.KindInt:
		c.Ints = append(c.Ints, 0)
	case rel.KindFloat:
		c.Floats = append(c.Floats, 0)
	default:
		c.Strs = append(c.Strs, "")
	}
}

// retype makes an n-row column that holds only NULLs a column of kind k.
func (c *ColData) retype(k rel.Kind, n int) {
	c.Kind, c.Ints, c.Floats, c.Strs = k, nil, nil, nil
	switch k {
	case rel.KindInt:
		c.Ints = make([]int64, n)
	case rel.KindFloat:
		c.Floats = make([]float64, n)
	default:
		c.Strs = make([]string, n)
	}
}

// toMixed moves the column's n cells into Vals, the mixed-kind layout.
func (c *ColData) toMixed(n int) {
	vals := make([]rel.Value, n, n+1)
	for i := range vals {
		vals[i] = c.Value(i)
	}
	*c = ColData{Kind: rel.KindNull, Vals: vals}
}

// view is the column's first n rows as a column sharing its storage,
// each slice clipped to length and capacity n, so appending to either
// column never writes where the other reads. NullWords alone is copied:
// its last word may hold row n and beyond. No index.
func (c *ColData) view(n int) ColData {
	v := c.slice(0, n)
	if c.NullWords != nil {
		v.NullWords = slices.Clone(c.NullWords[:vec.NumWords(n)])
	}
	return v
}

// appendRow writes row as the store's next row, column by column, and
// keeps each column's sorted index slot current (attachIndex).
func (cs *ColStore) appendRow(row rel.Row) {
	for pos := range cs.cols {
		c := &cs.cols[pos]
		c.push(row[pos], cs.numRows)
		c.attachIndex(cs.cols)
	}
	cs.numRows++
}

// ReadRow writes row i's values into dst, which must hold one slot per
// column.
func (cs *ColStore) ReadRow(dst rel.Row, i int) {
	for pos := range cs.cols {
		dst[pos] = cs.cols[pos].Value(i)
	}
}

// bytes counts the column's backing arrays at capacity — typed slice,
// NULL marking and Vals — leaving out each array that also backs the same
// slice of base (nil: none). String payloads, which rows may share, are
// not counted.
func (c *ColData) bytes(base *ColData) int64 {
	if base == nil {
		base = &ColData{}
	}
	return arrayBytes(c.Ints, base.Ints) + arrayBytes(c.Floats, base.Floats) +
		arrayBytes(c.Strs, base.Strs) + arrayBytes(c.Nulls, base.Nulls) +
		arrayBytes(c.NullWords, base.NullWords) + arrayBytes(c.Vals, base.Vals)
}

// arrayBytes is the size of s's backing array, or 0 when base starts on
// the same array.
func arrayBytes[T any](s, base []T) int64 {
	if cap(s) == 0 || unsafe.SliceData(s) == unsafe.SliceData(base) {
		return 0
	}
	var zero T
	return int64(cap(s)) * int64(unsafe.Sizeof(zero))
}
