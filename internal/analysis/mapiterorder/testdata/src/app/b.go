// Fixture modeling template-grouping code paths (the determinism
// contract, DESIGN.md §2): wave planning that groups validation tasks by
// template fingerprint in maps, where everything derived from those
// groups — wave order, union constants, signature hashes — must come out
// byte-identical run to run, so the analyzer provably covers the shape.
package app

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

type task struct {
	fp  uint64
	sql string
}

// Flushing a template-group map straight into the wave order is the
// exact bug wave planning must not have: worker count would no longer
// determine results, map seed would.
func waveFromGroups(groups map[uint64][]task) []task {
	var wave []task
	for _, ts := range groups {
		wave = append(wave, ts...) // want `append in map iteration order`
	}
	return wave
}

// The deterministic idiom wave planning actually uses: collect the
// fingerprints, sort, then flush groups in fingerprint order.
func waveSorted(groups map[uint64][]task) []task {
	var fps []uint64
	for fp := range groups {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	var wave []task
	for _, fp := range fps {
		wave = append(wave, groups[fp]...)
	}
	return wave
}

// Grouping itself — tasks into per-template buckets keyed by the
// iteration key — is a per-key merge: no single bucket's order depends
// on map iteration.
func regroup(byQuery map[uint64][]task, out map[uint64][]task) {
	for fp, ts := range byQuery {
		out[fp] = append(out[fp], ts...) // per-key merge: order-insensitive
	}
}

// A template signature hashed from a constants map in iteration order
// would give the same template a different fingerprint per run —
// collisions checks would chase ghosts.
func signatureHash(consts map[string]int64) uint64 {
	h := fnv.New64a()
	for col, c := range consts {
		fmt.Fprintf(h, "%s=%d;", col, c) // want `fmt.Fprintf in map iteration order`
	}
	return h.Sum64()
}

// The union (loosest) constant over a template group is a commutative
// fold: max over a map is deterministic without sorting.
func unionBound(bounds map[uint64]int64) int64 {
	loosest := int64(0)
	for _, b := range bounds {
		if b > loosest {
			loosest = b
		}
	}
	return loosest
}

// A cache debug dump concatenated in index-map order drifts between
// runs; diffing two dumps would show phantom changes.
func dumpIndex(index map[uint64]string, sb *strings.Builder) {
	for fp, entry := range index {
		sb.WriteString(fmt.Sprintf("%x:%s\n", fp, entry)) // want `WriteString in map iteration order`
	}
}

// Counting template-index hits per group is pure counting.
func groupCount(groups map[uint64][]task) int {
	n := 0
	for range groups {
		n++
	}
	return n
}
