// Package reoptclient is the wire protocol and minimal Go client for
// the reoptd daemon (cmd/reoptd): JSON request/response types for the
// /v1/reoptimize, /v1/validate and /v1/workload endpoints, and a
// retrying HTTP client that honors the server's Retry-After backoff
// hints. The package depends only on the standard library, so embedding
// it in a caller does not pull in the query-processing engine.
//
// Failure semantics mirror the daemon's (DESIGN.md §7): 429 means the
// tenant's admission queue was full and the request was shed before any
// work started; 503 means the daemon is draining; both are safe to
// retry and carry a Retry-After hint. A request-level timeout is a §5.4
// budget, not an error: the daemon answers 200 with the best plan found
// so far and Converged=false.
package reoptclient

import (
	"encoding/json"
	"fmt"
	"time"
)

// Duration marshals as a Go duration string ("150ms", "2s") so request
// bodies and config files stay human-readable.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string or a bare number of
// nanoseconds (the encoding a naive marshaler of time.Duration emits).
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch t := v.(type) {
	case string:
		dd, err := time.ParseDuration(t)
		if err != nil {
			return fmt.Errorf("reoptclient: bad duration %q: %w", t, err)
		}
		*d = Duration(dd)
		return nil
	case float64:
		*d = Duration(time.Duration(t))
		return nil
	default:
		return fmt.Errorf("reoptclient: bad duration %v", v)
	}
}

// ReoptimizeRequest asks the daemon to run Algorithm 1 on one query.
type ReoptimizeRequest struct {
	// SQL is the query text (the SPJ dialect Session.Parse accepts).
	SQL string `json:"sql"`
	// Timeout, when positive, budgets the whole re-optimization: on
	// expiry the daemon returns the best plan generated so far with
	// Converged=false (HTTP 200), per the paper's §5.4. It also caps
	// the request's server-side context deadline.
	Timeout Duration `json:"timeout,omitempty"`
	// MaxRounds caps optimizer invocations (0 = run to convergence).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Seeds, when > 1, selects the §7 multi-seed variant with that many
	// distinct initial plans. The daemon answers a count above 16 with
	// 400 bad_request.
	Seeds int `json:"seeds,omitempty"`
}

// ReoptimizeResponse is the outcome of one re-optimization.
type ReoptimizeResponse struct {
	// Fingerprint canonically identifies the final plan's shape.
	Fingerprint string `json:"fingerprint"`
	// Explain is the final plan rendered as an EXPLAIN tree.
	Explain string `json:"explain"`
	// Cost is the final plan's cost under the validated statistics.
	Cost float64 `json:"cost"`
	// NumPlans and Rounds trace the procedure (Figures 5/8/16/20).
	NumPlans int `json:"num_plans"`
	Rounds   int `json:"rounds"`
	// Converged is false when a round/time budget stopped the loop
	// early and the response carries the best-so-far plan.
	Converged bool `json:"converged"`
	// ReoptTime is the server-side re-optimization overhead.
	ReoptTime Duration `json:"reopt_time"`
}

// ValidateRequest asks the daemon to optimize each query once and
// validate the resulting plans' join skeletons over the samples as one
// shared-scan batch.
type ValidateRequest struct {
	SQL     []string `json:"sql"`
	Timeout Duration `json:"timeout,omitempty"`
}

// PlanEstimate is one plan's sampling-validated cardinalities.
type PlanEstimate struct {
	// Delta maps canonical relation-set keys to estimated full-table
	// cardinalities (the paper's Δ).
	Delta map[string]float64 `json:"delta"`
	// SampleRows records the raw per-key sample counts.
	SampleRows map[string]int64 `json:"sample_rows"`
	// Duration is the wall-clock validation time.
	Duration Duration `json:"duration"`
}

// ValidateResponse carries one estimate per submitted query,
// positionally.
type ValidateResponse struct {
	Estimates []PlanEstimate `json:"estimates"`
}

// WorkloadRequest re-optimizes a batch of queries with bounded
// concurrency through one tenant session.
type WorkloadRequest struct {
	SQL []string `json:"sql"`
	// Parallelism bounds queries in flight (0 = server default).
	Parallelism int `json:"parallelism,omitempty"`
	// Timeout budgets each query independently (§5.4 per query).
	Timeout Duration `json:"timeout,omitempty"`
	// MaxRounds caps each query's optimizer invocations.
	MaxRounds int `json:"max_rounds,omitempty"`
}

// WorkloadItem is one query's slot in a workload response: exactly one
// of Result and Error is set. A per-query failure (admission shed,
// contained panic, budget spent while queued) leaves Error set while
// the other items carry their results — the HTTP status is still 200.
type WorkloadItem struct {
	Result *ReoptimizeResponse `json:"result,omitempty"`
	Error  *ErrorBody          `json:"error,omitempty"`
}

// WorkloadResponse is positional and parallel to the request's SQL.
type WorkloadResponse struct {
	Items []WorkloadItem `json:"items"`
}

// Error kinds, the machine-readable classification of every non-200
// response (and of per-query workload failures). They mirror the root
// package's error taxonomy; DESIGN.md §7 tabulates the mapping.
const (
	// KindOverloaded: the tenant's admission queue was full; the
	// request was shed before any work started (HTTP 429, Retry-After
	// set). Always safe to retry.
	KindOverloaded = "overloaded"
	// KindDraining: the daemon is shutting down; queued and new
	// requests are rejected while in-flight ones finish (HTTP 503,
	// Retry-After set). Safe to retry against a restarted daemon.
	KindDraining = "draining"
	// KindMemoryBudget: a /v1/validate run breached the tenant's
	// per-validation memory budget; with no best-so-far plan to degrade
	// to, the call fails (HTTP 422). Re-optimize requests never carry
	// this kind — they degrade to 200 best-so-far.
	KindMemoryBudget = "memory_budget"
	// KindValidationPanic: a panic inside the validation pipeline was
	// contained; only this request failed and the daemon keeps serving
	// (HTTP 500). Retrying is permitted but not automatic: the same
	// plan will likely panic again.
	KindValidationPanic = "validation_panic"
	// KindPanic: a panic crossed the handler boundary itself and was
	// contained there (HTTP 500).
	KindPanic = "panic"
	// KindBudgetExhausted: the request's budget was spent before any
	// plan was produced — e.g. the query sat queued for its whole
	// timeout (HTTP 504).
	KindBudgetExhausted = "budget_exhausted"
	// KindBadRequest: unparseable body, unknown field values, or SQL
	// the dialect rejects (HTTP 400).
	KindBadRequest = "bad_request"
	// KindUnknownTenant: the tenant is not configured and the daemon
	// has no default quota (HTTP 404).
	KindUnknownTenant = "unknown_tenant"
	// KindInternal: any other failure (HTTP 500).
	KindInternal = "internal"
)

// ErrorBody is the structured body of every non-200 response.
type ErrorBody struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// RetryAfter mirrors the Retry-After header, in seconds, when the
	// failure is retriable (overloaded, draining).
	RetryAfter int `json:"retry_after,omitempty"`
}

// APIError is the client-side error for a non-200 response.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Body is the decoded structured error (zero-valued when the
	// response body was not a valid ErrorBody).
	Body ErrorBody
	// RetryAfter is the parsed Retry-After header (0 when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Body.Kind != "" {
		return fmt.Sprintf("reoptd: %d %s: %s", e.Status, e.Body.Kind, e.Body.Message)
	}
	return fmt.Sprintf("reoptd: HTTP %d", e.Status)
}

// IsOverloaded reports whether err is a 429 admission shed — the
// request did no work and may be retried after the hinted backoff.
func IsOverloaded(err error) bool {
	ae, ok := asAPIError(err)
	return ok && ae.Status == 429
}

// IsDraining reports whether err is a 503 from a draining daemon.
func IsDraining(err error) bool {
	ae, ok := asAPIError(err)
	return ok && ae.Status == 503
}

func asAPIError(err error) (*APIError, bool) {
	for err != nil {
		if ae, ok := err.(*APIError); ok {
			return ae, true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return nil, false
		}
		err = u.Unwrap()
	}
	return nil, false
}
