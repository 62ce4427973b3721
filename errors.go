package reopt

import (
	"errors"

	"reopt/internal/core"
	"reopt/internal/executor"
	"reopt/internal/sampling"
)

// Error taxonomy. Callers branch with errors.Is against these sentinels
// instead of string-matching; every layer underneath wraps them with
// situational detail.
var (
	// ErrNoSamples: a validation or re-optimization was attempted
	// against a catalog whose samples have not been built. The fix is
	// always Catalog.BuildSamples.
	ErrNoSamples = sampling.ErrNoSamples

	// ErrUnsupportedPlan: the plan's shape is outside the executing
	// engine's contract — a hand-built node kind the Volcano executor
	// does not know, or, for Session.Validate's count-only skeleton
	// engine, a plan that is not a tree of scans and equi-joins applying
	// exactly its query's filters and join predicates (every optimizer
	// plan is). Validate fails such a plan with this error and caches
	// nothing of it; there is no fallback engine.
	ErrUnsupportedPlan = executor.ErrUnsupportedPlan

	// ErrBudgetExceeded: a re-optimization budget (WithTimeout or a ctx
	// deadline) expired before any plan could be produced — e.g. a
	// workload query whose budget was spent while it sat queued. Once a
	// plan exists, budget exhaustion is not an error: the best plan so
	// far is returned. Wraps context.DeadlineExceeded.
	ErrBudgetExceeded = core.ErrBudgetExceeded

	// ErrMemoryBudget: a validation materialized more values than the
	// session's WithMemoryBudget allows. It wraps
	// context.DeadlineExceeded deliberately, so inside Reoptimize the
	// breach degrades exactly like a spent time budget — keep the best
	// validated plan so far, never fail the query; the sentinel
	// surfaces only from Validate, which has no best-so-far to fall
	// back on.
	ErrMemoryBudget = executor.ErrMemoryBudget

	// ErrCountOverflow: a validation's sample count does not fit an
	// int64 — sub-results carry multiplicities and joins multiply them,
	// so a count is not bounded by the rows that fit in memory. The
	// validation fails; nothing of the overflowing join is cached.
	ErrCountOverflow = executor.ErrCountOverflow

	// ErrValidationPanic: a panic inside a validation was recovered at
	// the skeleton engine's boundary (executor.Prepared.Count) and
	// contained. The concrete error is an *executor.PanicError carrying
	// the panic value and stack; only the query whose plan panicked sees
	// it — concurrent queries and the Session are unaffected.
	ErrValidationPanic = executor.ErrValidationPanic

	// ErrOverloaded: the session's WithMaxInFlight admission queue was
	// full, so the call was shed immediately instead of waiting. In
	// ReoptimizeWorkload a shed query leaves a nil hole with this error
	// recorded per query; serial traffic is never shed.
	ErrOverloaded = errors.New("session overloaded: admission queue full")

	// ErrSessionClosed: the call arrived at (or was queued on) a
	// Session after Close.
	ErrSessionClosed = errors.New("session closed")
)
