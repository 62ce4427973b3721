package faultinject

import (
	"testing"
	"time"
)

func TestInactiveByDefault(t *testing.T) {
	if Active() {
		t.Fatal("Active() true with no set activated")
	}
	// Firing with no set must be a no-op, not a crash.
	Fire(SkelNode, "anything")
}

func TestPanicAtMatchesTagSubstring(t *testing.T) {
	var s Set
	s.PanicAt(SkelNode, "r2.a = 7")
	defer s.Activate()()

	Fire(SkelNode, "T:t1=r1|F:r1.a = 3") // no match
	func() {
		defer func() {
			r := recover()
			inj, ok := r.(Injected)
			if !ok {
				t.Fatalf("recovered %#v, want Injected", r)
			}
			if inj.Point != SkelNode {
				t.Fatalf("point = %q", inj.Point)
			}
		}()
		Fire(SkelNode, "T:t2=r2|F:r2.a = 7")
		t.Fatal("expected panic")
	}()
	// Count:1 — a second match must not fire again.
	Fire(SkelNode, "T:t2=r2|F:r2.a = 7")
	if got := s.Fired(SkelNode); got != 3 {
		t.Fatalf("Fired(SkelNode) = %d, want 3", got)
	}
}

func TestSkipAndCount(t *testing.T) {
	var s Set
	var fired int
	s.On(Rule{Point: Estimate, Skip: 1, Count: 2, Do: func(Point, string) { fired++ }})
	defer s.Activate()()

	for i := 0; i < 5; i++ {
		Fire(Estimate, "plans=1")
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want 2 (skip first, cap at 2)", fired)
	}
}

func TestCancelAt(t *testing.T) {
	var s Set
	done := make(chan struct{})
	var once bool
	s.CancelAt(Estimate, "", func() {
		if !once {
			once = true
			close(done)
		}
	})
	defer s.Activate()()
	Fire(Estimate, "plans=2")
	select {
	case <-done:
	default:
		t.Fatal("cancel action did not run")
	}
}

func TestSleepAtDelays(t *testing.T) {
	var s Set
	s.SleepAt(SkelNode, "", 20*time.Millisecond)
	defer s.Activate()()
	start := time.Now()
	Fire(SkelNode, "x")
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("Fire returned after %v, want >= 20ms sleep", d)
	}
}

func TestActivateExclusive(t *testing.T) {
	var a, b Set
	restore := a.Activate()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second Activate did not panic")
			}
		}()
		b.Activate()
	}()
	restore()
	// After restore a new set can activate.
	b.Activate()()
	if Active() {
		t.Fatal("Active() after restore")
	}
}
