// Package faultinject provides deterministic, test-only fault
// injection points threaded through the validation pipeline: the
// skeleton executor, the sampling estimator, and the daemon's handler
// boundary. Production builds pay a single atomic load per site
// (Active() is false unless a test activated a rule Set), so the
// points can stay compiled in permanently.
//
// A test builds a Set of Rules, each matching an injection Point (and
// optionally a tag substring identifying the specific node or call), and
// Activates it:
//
//	var fi faultinject.Set
//	fi.PanicAt(faultinject.SkelNode, "r3.a = 37")
//	defer fi.Activate()()
//
// Rules fire deterministically: matching is by exact Point and tag
// substring, with optional Skip (ignore the first k matches) and Count
// (fire at most n times) so a test can target e.g. "the second
// estimate call". Actions run outside the package locks, so a rule may sleep,
// panic, or cancel a context without stalling other injection sites.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one instrumented seam in the pipeline.
type Point string

// The instrumented points. Tags are chosen to be stable, content-based
// identities so tests target semantic work units, not scheduling
// accidents.
const (
	// SkelNode fires as the skeleton engine enters a node, before any of
	// the node's subtree is evaluated. Tag: the node's canonical subtree
	// signature.
	SkelNode Point = "executor.skeleton.node"
	// Estimate fires at the head of every sampling estimate call that
	// has plans to validate. Tag: "plans=<n>".
	Estimate Point = "sampling.estimate"
	// Handler fires at the reoptd daemon's handler boundary, after
	// tenant resolution and before any session work. Tag:
	// "tenant=<name> endpoint=<path>", so a rule can detonate one
	// tenant's requests and prove the blast stops at that tenant.
	Handler Point = "server.handler"
)

// Injected is the panic value raised by PanicAt rules; chaos tests can
// assert the contained failure originated from an injection.
type Injected struct {
	Point Point
	Tag   string
}

func (i Injected) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s (%s)", i.Point, i.Tag)
}

// Rule matches an injection site and runs an action when it fires.
type Rule struct {
	// Point selects the instrumented seam.
	Point Point
	// Tag, when non-empty, is matched as a substring of the site's tag.
	Tag string
	// Skip ignores the first Skip matches before firing.
	Skip int
	// Count caps how many times the rule fires; 0 means unlimited.
	Count int
	// Do is the action; it receives the firing site's point and tag.
	Do func(Point, string)

	matched int
	fired   int
}

// Set is a collection of rules a test activates together.
type Set struct {
	mu    sync.Mutex
	rules []*Rule
	hits  map[Point]int
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	current *Set
)

// Active reports whether any rule set is activated. Call sites gate on
// this before computing tags, so disabled injection costs one atomic
// load.
func Active() bool { return enabled.Load() }

// Fire runs the actions of every matching rule in the active set.
// Actions execute outside all locks.
func Fire(p Point, tag string) {
	if !enabled.Load() {
		return
	}
	mu.Lock()
	s := current
	mu.Unlock()
	if s == nil {
		return
	}
	var actions []func(Point, string)
	s.mu.Lock()
	if s.hits == nil {
		s.hits = make(map[Point]int)
	}
	s.hits[p]++
	for _, r := range s.rules {
		if r.Point != p || (r.Tag != "" && !contains(tag, r.Tag)) {
			continue
		}
		r.matched++
		if r.matched <= r.Skip {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		r.fired++
		if r.Do != nil {
			actions = append(actions, r.Do)
		}
	}
	s.mu.Unlock()
	for _, do := range actions {
		do(p, tag)
	}
}

// On adds a rule to the set and returns it for further tweaking.
func (s *Set) On(r Rule) *Rule {
	rp := &r
	s.mu.Lock()
	s.rules = append(s.rules, rp)
	s.mu.Unlock()
	return rp
}

// PanicAt panics with an Injected value the first time point fires with
// a tag containing tag.
func (s *Set) PanicAt(p Point, tag string) *Rule {
	return s.On(Rule{Point: p, Tag: tag, Count: 1, Do: func(fp Point, ft string) {
		panic(Injected{Point: fp, Tag: ft})
	}})
}

// SleepAt delays every matching firing by d — the "slow scan" fault.
func (s *Set) SleepAt(p Point, tag string, d time.Duration) *Rule {
	return s.On(Rule{Point: p, Tag: tag, Do: func(Point, string) {
		time.Sleep(d)
	}})
}

// CancelAt calls cancel the first time point fires with a matching tag
// — the "cancel mid-validation" fault.
func (s *Set) CancelAt(p Point, tag string, cancel func()) *Rule {
	return s.On(Rule{Point: p, Tag: tag, Count: 1, Do: func(Point, string) {
		cancel()
	}})
}

// AllocAt burns transient allocations on every matching firing — the
// "alloc spike" fault, for exercising memory-budget paths under load.
func (s *Set) AllocAt(p Point, tag string, bytes int) *Rule {
	return s.On(Rule{Point: p, Tag: tag, Do: func(Point, string) {
		if b := make([]byte, bytes); len(b) > 0 {
			sink.Store(&b[0])
		}
	}})
}

// sink keeps AllocAt's allocation from being optimized away; atomic
// because rules fire from whichever goroutine hits the point.
var sink atomic.Pointer[byte]

// Fired reports how many times any rule action could have observed
// point p fire (matching or not) since activation.
func (s *Set) Fired(p Point) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits[p]
}

// Activate installs the set as the process-wide active set and returns
// a restore func. Only one set may be active at a time; tests that
// inject faults cannot run in parallel with each other.
func (s *Set) Activate() (restore func()) {
	mu.Lock()
	if current != nil {
		mu.Unlock()
		panic("faultinject: a rule set is already active")
	}
	current = s
	enabled.Store(true)
	mu.Unlock()
	return func() {
		mu.Lock()
		enabled.Store(false)
		current = nil
		mu.Unlock()
	}
}

// contains reports whether sub occurs in s. Local to avoid importing
// strings in a package linked into production binaries.
func contains(s, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
