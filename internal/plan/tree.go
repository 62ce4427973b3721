package plan

import (
	"slices"
	"sort"
	"strings"
)

// AliasSep separates alias names inside encodings so multi-character
// aliases cannot collide ("AB"+"C" vs "A"+"BC").
const AliasSep = "\x1f"

// CanonicalSet returns the unordered (sorted) encoding of an alias set.
func CanonicalSet(aliases []string) string {
	s := make([]string, len(aliases))
	copy(s, aliases)
	sort.Strings(s)
	return strings.Join(s, AliasSep)
}

// TransformKind classifies the relationship between two consecutive plans
// in the re-optimization chain.
type TransformKind uint8

const (
	// SamePlan means identical physical fingerprints (termination).
	SamePlan TransformKind = iota
	// Local means a local transformation (Definition 1) that is not the
	// identical plan.
	Local
	// Global means a global transformation.
	Global
)

// String returns the kind's display name.
func (k TransformKind) String() string {
	switch k {
	case SamePlan:
		return "same"
	case Local:
		return "local"
	case Global:
		return "global"
	default:
		return "?"
	}
}

// Classify compares two physical plans and reports their relationship.
func Classify(prev, next *Plan) TransformKind {
	if prev == nil {
		return Global
	}
	if prev.Fingerprint() == next.Fingerprint() {
		return SamePlan
	}
	// Definition 1: the trees contain the same set of unordered logical
	// joins (subtree exchanges and physical-operator changes only). A
	// tree's join sets are pairwise distinct (a parent strictly contains
	// its children), so equality of the ascending lists is set equality.
	if slices.Equal(prev.JoinSets(), next.JoinSets()) {
		return Local
	}
	return Global
}

// Covered reports Definition 2: every join of p's tree appears in
// validated, the union of the join sets of the plans validated so far
// (JoinSets masks of plans of the same query). Joins compare unordered
// because A⋈B and B⋈A have identical validated cardinality, so they
// contribute the same entry to Γ.
func Covered(p *Plan, validated []uint64) bool {
	for _, s := range p.JoinSets() {
		if !slices.Contains(validated, s) {
			return false
		}
	}
	return true
}
