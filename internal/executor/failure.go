package executor

// Failure containment and resource accounting for the skeleton engine.
// Three failure classes fail one validation and nothing else:
//
//   - ErrMemoryBudget: a validation materialized more boundary-column
//     values and hash-table entries than the configured soft budget
//     allows. It wraps context.DeadlineExceeded so the core round loop
//     degrades it exactly like the paper's §5.4 time budget — keep the
//     best validated plan so far, never fail the query outright.
//
//   - ErrValidationPanic / PanicError: a panic anywhere inside a
//     skeleton evaluation (including injected faults) is recovered at
//     the engine boundary (Prepared.Count) and converted to an error
//     carrying the stack. The plan being validated fails; plans validated
//     before or after it are unaffected.
//
//   - ErrCountOverflow (compact.go): a logical count past int64. The
//     checked weight arithmetic panics with it and the engine boundary
//     hands it back as itself (failureError).
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

// NewPanicError converts a recovered panic value into a *PanicError
// carrying the recovering goroutine's stack — the panicking frames are
// still on it inside a deferred recover. Exported for the layer above the
// executor (the session's workload workers) that contains panics at its
// own goroutine boundary.
func NewPanicError(r any) *PanicError {
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// failureError converts a recovered panic value into the error its
// validation fails with: ErrCountOverflow for the checked weight
// arithmetic's panic, a *PanicError for anything else.
func failureError(r any) error {
	if err, ok := r.(error); ok && errors.Is(err, ErrCountOverflow) {
		return err
	}
	return NewPanicError(r)
}

// memAccount tracks one validation's materialization charge against a
// soft budget. The unit is "values": one materialized cell — a
// boundary-column value or a row's weight — or one hash-table entry each
// cost 1. Charges are deterministic functions of the plan and sample data
// alone — a cache hit charges what computing the sub-result does — so a
// given (plan, sample) pair breaches or passes a budget identically in
// every cache state.
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
