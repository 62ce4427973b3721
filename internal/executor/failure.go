package executor

// Failure containment and resource accounting for the skeleton
// engines. Two failure classes are introduced here:
//
//   - ErrMemoryBudget: a validation materialized more boundary-column
//     values and hash-table entries than the configured soft budget
//     allows. It wraps context.DeadlineExceeded so the core round loop
//     degrades it exactly like the paper's §5.4 time budget — keep the
//     best validated plan so far, never fail the query outright.
//
//   - ErrValidationPanic / PanicError: a panic anywhere inside a
//     skeleton evaluation (including injected faults) is recovered at
//     the engine boundary and converted to an error carrying the
//     panicking goroutine's stack. The batch engine attributes it to
//     exactly the plans whose subtrees the failed work unit served;
//     co-scheduled plans complete unaffected.
//
//   - ErrCountOverflow (compact.go): a logical count past int64. The
//     checked weight arithmetic panics with it and the engine boundaries
//     hand it back as itself (failureError), to the plans a panic there
//     would have failed.
//
// None ever poisons a cache: a plan that fails stores nothing, and
// sub-results already fully computed remain valid.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrMemoryBudget reports that a validation exceeded its soft memory
// budget. It wraps context.DeadlineExceeded deliberately: callers that
// implement the §5.4 budget pattern (treat an exhausted budget as "stop
// refining, keep best-so-far") handle space exhaustion with the same
// branch that handles time exhaustion.
var ErrMemoryBudget = fmt.Errorf("validation memory budget exceeded: %w", context.DeadlineExceeded)

// ErrValidationPanic is the sentinel matched by errors.Is for panics
// recovered inside validation. The concrete error is *PanicError.
var ErrValidationPanic = errors.New("validation panicked")

// PanicError carries a recovered validation panic: the panic value and
// the stack of the goroutine that panicked.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("validation panicked: %v", e.Value)
}

// Unwrap lets errors.Is(err, ErrValidationPanic) match.
func (e *PanicError) Unwrap() error { return ErrValidationPanic }

// NewPanicError converts a recovered panic value into a *PanicError.
// Exported for the layers above the executor (scheduler, session) that
// contain panics at their own goroutine boundaries.
func NewPanicError(r any) *PanicError {
	if cp, ok := r.(*capturedPanic); ok {
		return &PanicError{Value: cp.val, Stack: cp.stack}
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// failureError converts a recovered panic value into the error its
// validation fails with: ErrCountOverflow for the checked weight
// arithmetic's panic, a *PanicError for anything else.
func failureError(r any) error {
	v := r
	if cp, ok := r.(*capturedPanic); ok {
		v = cp.val
	}
	if err, ok := v.(error); ok && errors.Is(err, ErrCountOverflow) {
		return err
	}
	return NewPanicError(r)
}

// capturedPanic is a panic captured on a worker goroutine together with
// that goroutine's stack, re-panicked on the coordinating goroutine so
// the engine-boundary recover sees the original failure site.
type capturedPanic struct {
	val   any
	stack []byte
}

// capturePanic snapshots a recovered value with the current stack; a
// value that is already a capturedPanic passes through unchanged so the
// original stack survives re-panics across goroutine hops.
func capturePanic(r any) *capturedPanic {
	if cp, ok := r.(*capturedPanic); ok {
		return cp
	}
	return &capturedPanic{val: r, stack: debug.Stack()}
}

// memAccount tracks one validation's materialization charge against a
// soft budget. The unit is "values": one materialized cell — a
// boundary-column value or a row's weight — or one hash-table entry each
// cost 1. Charges are deterministic functions of the plan and sample data
// alone — a cache hit and a template refinement charge what computing the
// sub-result does, and the batch engine charges each plan for every node
// of its tree (with multiplicity) — so a given (plan, sample) pair
// breaches or passes a budget identically across engines, worker counts,
// and cache states.
type memAccount struct {
	budget int64 // <= 0 means unlimited
	used   int64
}

// charge adds n values to the account and reports whether the budget
// is now exceeded.
func (m *memAccount) charge(n int64) bool {
	if m == nil || m.budget <= 0 {
		return false
	}
	m.used += n
	return m.used > m.budget
}

// subCharge is the canonical charge for one evaluated sub-result: what it
// materializes — physical rows x (boundary columns + the weight column,
// when it has one).
func subCharge(sub *subResult) int64 {
	width := len(sub.cols)
	if sub.w != nil {
		width++
	}
	return int64(sub.count) * int64(width)
}
