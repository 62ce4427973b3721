package executor

// Weighted sub-results (DESIGN.md §12). A sub-result is a bag of boundary
// tuples and the estimator only asks how many it holds, so the bag is kept
// compressed: one physical row per distinct tuple and, when some tuple
// repeats, a weight column carrying each row's multiplicity. Joins multiply
// weights instead of enumerating the rows they stand for. compact is the
// one place a row sequence turns into that form. It groups by hashing, or
// — for a lone int64 column whose values span few more than its rows, the
// shape of a range scan or a join on OTT's keys — by counting into
// counters indexed by value offset; either way the groups, their order and
// their weights are the same.

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync"

	"reopt/internal/rel"
	"reopt/internal/storage"
	"reopt/internal/vec"
)

// ErrCountOverflow reports a validation whose logical count does not fit
// an int64: weights multiply through joins, so a count is no longer
// bounded by the rows that fit in memory.
var ErrCountOverflow = errors.New("validation count overflows int64")

// mulW and addW are the checked weight arithmetic. An overflow panics with
// ErrCountOverflow, which the engine boundaries hand back as that error
// (failureError): the probe and compact loops carry no error plumbing.
func mulW(a, b int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		overflow()
	}
	return int64(lo)
}

func addW(a, b int64) int64 {
	if a > math.MaxInt64-b {
		overflow()
	}
	return a + b
}

func overflow() { panic(ErrCountOverflow) } // out of line, so mulW and addW inline

// Compaction gives up when fewer than 1 in giveUpShare of the first
// giveUpRows rows repeated an earlier tuple: on near-unique keys grouping
// costs several times the gather it replaces and buys nothing downstream.
// Scattered duplicates still show — with every key held by 3 of 1800 rows
// (ott_large's scans) the prefix expects 35 repeats against the 8 asked
// for. Read from BenchmarkCompact (BENCH_pr23.json): at dups=1 the prefix
// adds ~2 ns/row to a 1800-row gather; grouping every row would add ~8.
const (
	giveUpRows  = 256
	giveUpShare = 32
)

// colSrc is one column of an uncompressed row sequence: row x of the
// sequence reads col at rows[x].
type colSrc struct {
	col  *storage.ColData
	rows []int32
}

// bagWeights are the multiplicities of a row sequence made from two
// weighted inputs: row x counts lw[lrows[x]] * rw[rrows[x]] times (a nil
// weight column counts 1).
type bagWeights struct {
	lw, rw       []int64
	lrows, rrows []int32
}

func (b *bagWeights) at(x int) int64 {
	w := int64(1)
	if b.lw != nil {
		w = b.lw[b.lrows[x]]
	}
	if b.rw != nil {
		w = mulW(w, b.rw[b.rrows[x]])
	}
	return w
}

// compact materializes the n-row sequence srcs describe as a sub-result's
// columns in compressed form: it groups rows by the *representation
// identity* of their tuple (ColData.IdentAt — finer than Value.Equal, so
// the rows of a group are interchangeable for any later hash, compare or
// gather), keeps groups in first-occurrence order and sums their
// weights: a pure function of the row sequence, hence the same in every
// cache state. w is nil when every row counts once. A sequence on which
// group gives up is gathered as it stands; one without columns groups
// into the empty tuple. Columns are allocated at exact size; nothing
// returned aliases sc.
func compact(sc *skelScratch, srcs []colSrc, n int, bw bagWeights) (cols []storage.ColData, w []int64, count int, total int64) {
	cols = make([]storage.ColData, len(srcs))
	if n > 0 {
		total = sc.group(srcs, n, &bw)
	}
	if total == 0 {
		// Uncompressed: every row as it stands, weights alongside.
		for k, s := range srcs {
			cols[k] = s.col.NewLike(n)
			cols[k].Gather(s.col, s.rows[:n])
		}
		count, total = n, int64(n)
		if bw.lw != nil || bw.rw != nil {
			w, total = make([]int64, n), 0
			for x := range w {
				w[x] = bw.at(x)
				total = addW(total, w[x])
			}
		}
	} else {
		count = len(sc.groups)
		sc.idx = slices.Grow(sc.idx[:0], count)
		idx := sc.idx[:count]
		for k, s := range srcs {
			for i := range idx {
				idx[i] = s.rows[sc.groups[i].first]
			}
			cols[k] = s.col.NewLike(count)
			cols[k].Gather(s.col, idx)
		}
		if total != int64(count) {
			w = make([]int64, count)
			for i := range w {
				w[i] = sc.groups[i].w
			}
		}
	}
	if total == int64(count) {
		w = nil // every row counts once
	}
	return cols, w, count, total
}

// emptyTupleBag is the compressed form of total rows without columns, for
// a join that recorded none (an unweighted root).
func emptyTupleBag(total int64) (w []int64, count int) {
	if total > 1 {
		w = []int64{total}
	}
	return w, int(min(total, 1))
}

// groupRec is one group: its tag (the tuple's identity hash — or, for a
// lone NULL-free int64 column, the key itself, which needs no
// verification), its summed weight and the sequence position of its first
// row. groupSlot is an open-addressing slot: a tag and group index + 1.
type (
	groupRec struct {
		tag   uint64
		w     int64
		first int32
	}
	groupSlot struct {
		tag uint64
		g   int32
	}
)

// group is compact's grouping pass: it leaves the groups, in
// first-occurrence order, in sc.groups and returns the logical count, or 0
// when it gave up. The give-up prefix is always grouped by hashing; past
// it, a lone NULL-free int64 column of small span groups by counting
// (countGroups) when more rows follow than the prefix holds — on fewer,
// counting's fixed costs (the prefix groups merged in, the counters
// cleared) cost up to ~1 us more than hashing on sequences of 300 to 512
// rows, and it won from 768 up — and every other sequence goes on
// hashing. The hash path takes rows giveUpRows at a time: tags first, in
// a loop of independent loads (a join's output reads its child columns at
// scattered rows, and the probing loop mispredicts too often to overlap
// those misses itself), then probed in order.
func (sc *skelScratch) group(srcs []colSrc, n int, bw *bagWeights) (total int64) {
	exact := len(srcs) == 1 && srcs[0].col.Kind == rel.KindInt && srcs[0].col.Nulls == nil
	weighted := bw.lw != nil || bw.rw != nil
	size := 64
	for size < min(n, 2048) {
		size <<= 1
	}
	sc.seat(size, sc.groups[:0])
	for lo := 0; lo < n; lo += giveUpRows {
		if lo == giveUpRows {
			if len(sc.groups) > giveUpRows-giveUpRows/giveUpShare {
				return 0
			}
			if exact && useCounting && n > 2*giveUpRows {
				if total, ok := sc.countGroups(srcs[0], n, bw); ok {
					return total
				}
			}
		}
		tags := sc.tags[:min(giveUpRows, n-lo)]
		if exact {
			ints, rows := srcs[0].col.Ints, srcs[0].rows[lo:]
			for i := range tags {
				tags[i] = uint64(ints[rows[i]])
			}
		} else {
			for i := range tags {
				tags[i] = rel.HashSeed
			}
			for _, s := range srcs {
				rows := s.rows[lo:]
				for i := range tags {
					tags[i] = s.col.IdentHashAt(tags[i], int(rows[i]))
				}
			}
		}
		groups, tab := sc.groups, sc.tab
		shift, mask := uint(64-bits.TrailingZeros(uint(len(tab)))), uint64(len(tab)-1)
		for i, tag := range tags {
			wx := int64(1)
			if weighted {
				wx = bw.at(lo + i)
				total = addW(total, wx-1)
			}
			for s := (tag * slotMul) >> shift; ; s = (s + 1) & mask {
				e := &tab[s]
				if e.g == 0 {
					groups = append(groups, groupRec{tag, wx, int32(lo + i)})
					*e = groupSlot{tag, int32(len(groups))}
					if 2*len(groups) > len(tab) {
						tab = sc.seat(4*len(tab), groups)
						shift, mask = uint(64-bits.TrailingZeros(uint(len(tab)))), uint64(len(tab)-1)
					}
					break
				}
				if e.tag == tag && (exact || sameTuple(srcs, int(groups[e.g-1].first), lo+i)) {
					groups[e.g-1].w = addW(groups[e.g-1].w, wx)
					break
				}
			}
		}
		sc.groups = groups
	}
	return addW(total, int64(n))
}

// denseSpan bounds the value span countGroups takes: a lone int64 column
// of n rows groups by counting when max - min < denseSpan*n, so its
// counters (12 bytes a value, 8 of them cleared) cost at most 48 bytes a
// row, against a hash insert whose new-group branch mispredicts at a few
// rows a key. Read from BenchmarkCompact (2-core Xeon, go1.24, 3
// interleaved runs): at dups=3 counting takes 11-12.6 ns a row where the
// same keys spaced past denseSpan (wide/dups=3) hash in 19-21, and spaced
// to a span of 3.7n they still count in 13-14.
const denseSpan = 4

// useCounting lets the path-equivalence test run one sequence through
// both grouping paths; nothing else ever clears it.
var useCounting = true

// countGroups takes over from the hash path once the give-up prefix is
// grouped (its groups in sc.groups, each tag the value itself) and groups
// rows giveUpRows..n-1 of a lone NULL-free int64 column by value offset,
// with counters instead of a hash table: one pass reads the values and,
// with the prefix groups', takes their min and max; if they span
// denseSpan*n or more it returns ok false, having changed nothing group
// reads. Otherwise a reverse pass adds each row's weight to its value's
// counter and leaves there the value's first position, the prefix groups
// add theirs (their positions come first), and a forward pass appends the
// values first seen past the prefix in sequence order — the groups,
// weights and order the hash path makes, and the same ErrCountOverflow
// verdict: both sum every weight with addW. The result is the logical
// count of all n rows.
func (sc *skelScratch) countGroups(s colSrc, n int, bw *bagWeights) (total int64, ok bool) {
	pre := sc.groups
	sc.keys = slices.Grow(sc.keys[:0], n-giveUpRows)[:n-giveUpRows]
	keys := sc.keys
	lo, hi := readKeys(keys, s.col.Ints, s.rows[giveUpRows:n])
	for _, g := range pre {
		lo, hi = min(lo, int64(g.tag)), max(hi, int64(g.tag))
	}
	span := uint64(hi) - uint64(lo) // as unsigned: MinInt64..MaxInt64 does not wrap to small
	if span >= denseSpan*uint64(n) {
		return 0, false
	}
	sc.cnt = slices.Grow(sc.cnt[:0], int(span)+1)[:span+1]
	sc.first = slices.Grow(sc.first[:0], int(span)+1)[:span+1]
	cnt, first := sc.cnt, sc.first
	clear(cnt)
	if bw.lw != nil || bw.rw != nil {
		for x := len(keys) - 1; x >= 0; x-- {
			v, wx := uint64(keys[x]-lo), bw.at(giveUpRows+x)
			cnt[v] = addW(cnt[v], wx)
			total = addW(total, wx)
			first[v] = int32(giveUpRows + x)
		}
	} else {
		countKeys(keys, lo, cnt, first)
		total = int64(len(keys))
	}
	for i, g := range pre { // one group a value, so its counter is final here
		v := g.tag - uint64(lo)
		cnt[v] = addW(cnt[v], g.w)
		total = addW(total, g.w)
		first[v], pre[i].w = g.first, cnt[v]
	}
	sc.idx = slices.Grow(sc.idx[:0], len(keys))[:len(keys)]
	groups := pre
	for _, x := range firstPositions(sc.idx, keys, lo, first) {
		k := keys[x-giveUpRows]
		groups = append(groups, groupRec{uint64(k), cnt[k-lo], x})
	}
	sc.groups = groups
	return total, true
}

// readKeys copies ints at rows into keys and returns their min and max.
func readKeys(keys, ints []int64, rows []int32) (lo, hi int64) {
	lo, hi = ints[rows[0]], ints[rows[0]]
	for x, r := range rows {
		v := ints[r]
		keys[x] = v
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// countKeys is countGroups' reverse pass over unweighted rows, keys[x]
// being sequence row giveUpRows+x.
func countKeys(keys []int64, lo int64, cnt []int64, first []int32) {
	for x := len(keys) - 1; x >= 0; x-- {
		v := uint64(keys[x] - lo)
		cnt[v]++
		first[v] = int32(giveUpRows + x)
	}
}

// firstPositions writes into pos (len(keys) long), in order and without
// a branch per row, the sequence positions giveUpRows+x at which keys[x]
// occurs first, and returns them.
func firstPositions(pos []int32, keys []int64, lo int64, first []int32) []int32 {
	g := 0
	for x, k := range keys {
		pos[g] = int32(giveUpRows + x)
		if first[uint64(k-lo)] == int32(giveUpRows+x) {
			g++
		}
	}
	return pos[:g]
}

// slotMul spreads a tag over the slot table (as joinTable.bucket).
const slotMul = 0x9E3779B97F4A7C15

// seat sizes the scratch slot table (a power of two), seats the given
// groups in it by their tags and makes them sc.groups.
func (sc *skelScratch) seat(size int, groups []groupRec) []groupSlot {
	if cap(sc.tab) < size {
		sc.tab = make([]groupSlot, size)
	} else {
		sc.tab = sc.tab[:size]
		clear(sc.tab)
	}
	sc.groups = groups
	shift := uint(64 - bits.TrailingZeros(uint(size)))
	for g := range groups {
		s := (groups[g].tag * slotMul) >> shift
		for sc.tab[s].g != 0 {
			s = (s + 1) & uint64(size-1)
		}
		sc.tab[s] = groupSlot{groups[g].tag, int32(g + 1)}
	}
	return sc.tab
}

// sameTuple reports whether sequence rows x and y hold identical tuples.
func sameTuple(srcs []colSrc, x, y int) bool {
	for _, s := range srcs {
		if !s.col.IdentAt(int(s.rows[x]), int(s.rows[y])) {
			return false
		}
	}
	return true
}

// skelScratch is the working memory of one skeleton run — the scan path's
// bitmaps, selection vector and pass buffer, compact's slot table and
// groups — recycled through scratchPool. Whatever a run returns or
// caches is copied out at exact size; nothing here is reachable from it.
type skelScratch struct {
	bm, fb  *vec.Bitmap
	selBuf  []int32
	passBuf []scanPass

	pairs pairBuf // a probe's matches
	srcs  []colSrc
	runs  []storage.ColData // an index-answered scan's boundary column runs
	ids   []int32           // 0, 1, 2, ...: the selection vector of a run

	tab    []groupSlot
	tags   [giveUpRows]uint64
	groups []groupRec
	idx    []int32

	keys  []int64 // countGroups' values, in sequence order
	cnt   []int64 // its counters, by value offset
	first []int32 // each value offset's first position
}

var scratchPool = sync.Pool{New: func() any { return new(skelScratch) }}

func getScratch() *skelScratch { return scratchPool.Get().(*skelScratch) }

// putScratch recycles sc, minus what would pin a retired sample set or an
// evicted entry: compiled passes, column sources and views of ordered
// copies.
func putScratch(sc *skelScratch) {
	clear(sc.passBuf[:cap(sc.passBuf)])
	clear(sc.srcs[:cap(sc.srcs)])
	clear(sc.runs[:cap(sc.runs)])
	scratchPool.Put(sc)
}

// identity returns the selection vector 0, 1, ..., n-1, from a buffer
// only ever extended.
func (sc *skelScratch) identity(n int) []int32 {
	for i := len(sc.ids); i < n; i++ {
		sc.ids = append(sc.ids, int32(i))
	}
	return sc.ids[:n]
}

// sel returns the reusable selection buffer with length n, valid until
// the next scan; retained results copy out of it.
func (sc *skelScratch) sel(n int) []int32 {
	sc.selBuf = slices.Grow(sc.selBuf[:0], n)
	return sc.selBuf[:n]
}
