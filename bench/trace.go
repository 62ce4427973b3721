package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"reopt"
	"reopt/internal/core"
	"reopt/internal/plan"
	"reopt/internal/sampling"
	"reopt/internal/server"
	"reopt/reoptclient"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside that layer. Spans of one query on one rung share (Rung,
// Query); Parent is the index of the enclosing span, -1 at a rung's top.
type span struct {
	Name   string `json:"name"`
	Rung   string `json:"rung"`
	Query  int    `json:"query"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The ladder is
// serial, so it needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name, rung string, query, parent int) int {
	t.spans = append(t.spans, span{Name: name, Rung: rung, Query: query, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// add records a span whose bounds were worked out after the fact.
func (t *tracer) add(s span) { t.spans = append(t.spans, s) }

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// ladderSelf turns the per-query latencies of nested rungs, outermost
// first, into per-layer self times: the median over queries of a rung's
// latency minus the next rung's for the same query. Pairing by query
// cancels what the query itself costs, which on heavy-tailed workloads
// is far more than any layer's self time. The innermost rung keeps its
// whole median. A negative latency marks a failed call and is skipped.
func ladderSelf(rungs [][]float64) []float64 {
	out := make([]float64, len(rungs))
	for i, outer := range rungs {
		var diffs []float64
		for q, v := range outer {
			switch {
			case v < 0:
			case i+1 == len(rungs):
				diffs = append(diffs, v)
			case q < len(rungs[i+1]) && rungs[i+1][q] >= 0:
				diffs = append(diffs, v-rungs[i+1][q])
			}
		}
		out[i] = median(diffs)
	}
	return out
}

// durations returns, in recording order, the milliseconds of every span
// with the given name and rung.
func (t *tracer) durations(name, rung string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Rung == rung {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfDurations is durations for the spans' self times.
func (t *tracer) selfDurations(name, rung string) []float64 {
	var out []float64
	for i, self := range selfTimes(t.spans) {
		if s := t.spans[i]; s.Name == name && s.Rung == rung {
			out = append(out, ms(self))
		}
	}
	return out
}

// perQuery returns the duration in ms of the rung's top span for each
// of n queries, -1 where the query has none.
func (t *tracer) perQuery(rung string, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = -1
	}
	for _, s := range t.spans {
		if s.Rung == rung && s.Parent < 0 && s.Query >= 0 && s.Query < n {
			out[s.Query] = ms(s.dur())
		}
	}
	return out
}

// answered drops the -1 entries replay leaves for failed calls.
func answered(lat []float64) []float64 {
	out := make([]float64, 0, len(lat))
	for _, v := range lat {
		if v >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// tracingOverhead compares the traced (even) and untraced (odd) calls
// of the roundtrip rung. Each call's latency is first divided by the
// same query's latency on the next rung, so that what the query costs
// cancels and two halves of different queries can be compared.
func tracingOverhead(roundtrip, handler []float64) float64 {
	var halves [2][]float64
	for q, v := range roundtrip {
		if v >= 0 && q < len(handler) && handler[q] > 0 {
			halves[q%2] = append(halves[q%2], v/handler[q])
		}
	}
	return ratio(median(halves[0]), median(halves[1]))
}

// timedValidator is the timing wrapper the core rung hands to
// core.Options.Validator: one span and one count per validation.
type timedValidator struct {
	inner  core.Validator
	tr     *tracer
	rung   string
	query  int
	parent int
	calls  int
	plans  int
}

func (v *timedValidator) ValidatePlans(ctx context.Context, plans []*plan.Plan, cache sampling.Cache) ([]*sampling.Estimate, error) {
	id := v.tr.begin("sampling.validate", v.rung, v.query, v.parent)
	defer v.tr.end(id)
	v.calls++
	v.plans += len(plans)
	return v.inner.ValidatePlans(ctx, plans, cache)
}

// sessionOptions mirrors server.Quota's unexported mapping onto Session
// options, so the session rung runs what the handler rung runs.
func sessionOptions(q server.Quota, cache *reopt.WorkloadCache) []reopt.SessionOption {
	opts := []reopt.SessionOption{
		reopt.WithWorkers(q.Workers),
		reopt.WithMaxInFlight(q.MaxInFlight, q.QueueDepth),
		reopt.WithMemoryBudget(q.MemoryBudget),
		reopt.WithCache(cache),
	}
	if q.Scheduler {
		opts = append(opts, reopt.WithWorkloadScheduler(time.Duration(q.SchedulerWindow)))
	}
	if q.TemplateSharing {
		opts = append(opts, reopt.WithTemplateSharing())
	}
	return opts
}

// ladder is one traced run: the same warm-up prefix and the same
// queries put to each layer in turn.
type ladder struct {
	s    *spec
	cat  *reopt.Catalog
	tr   *tracer
	warm []string
	sqls []string
	rep  *report // attempted and failed count every call the run makes
}

// rung is one layer's way of answering a query. id < 0 marks a warm-up
// call, which records no span.
type rung struct {
	run   func(id int, src string) error
	close func() error
}

// lockstep puts every query to every rung before moving to the next
// query — the warm-up prefix first, then the measured queries — and
// returns, per rung, one latency in ms per measured query (-1 where the
// call failed). Each rung keeps its own server, session and cache, so
// each sees the same history; stepping them together means the two
// latencies a self time is the difference of were taken within
// milliseconds of each other, not on either side of one of the box's
// mood swings.
func (l *ladder) lockstep(rungs ...rung) ([][]float64, error) {
	lat := make([][]float64, len(rungs))
	step := func(id int, src string) {
		for r, rg := range rungs {
			l.rep.attempted++
			t0 := time.Now()
			err := rg.run(id, src)
			d := ms(time.Since(t0))
			if err != nil {
				l.rep.failed++
				l.rep.notef("rung %d query %d: %v", r, id, err)
				d = -1
			}
			if id >= 0 {
				lat[r] = append(lat[r], d)
			}
		}
	}
	for _, src := range l.warm {
		step(-1, src)
	}
	for i, src := range l.sqls {
		step(i, src)
	}
	for _, rg := range rungs {
		if err := rg.close(); err != nil {
			return nil, err
		}
	}
	return lat, nil
}

// rootSpan wraps fn in a top-level span unless the call is warm-up or
// untraced.
func (l *ladder) rootSpan(name string, id int, traced bool, fn func(root int) error) error {
	if id < 0 || !traced {
		return fn(-1)
	}
	root := l.tr.begin(name, name, id, -1)
	defer l.tr.end(root)
	return fn(root)
}

// roundtripRung is the outermost rung: reoptclient over loopback TCP.
// Only even queries record a span; the odd ones are the untraced half
// trace.overhead_ratio compares them with.
func (l *ladder) roundtripRung() (rung, error) {
	e, err := serve(l.cat, l.s.quota())
	if err != nil {
		return rung{}, err
	}
	return rung{close: e.close, run: func(id int, src string) error {
		return l.rootSpan("client.roundtrip", id, id%2 == 0, func(int) error {
			_, err := e.client.Reoptimize(context.Background(), &reoptclient.ReoptimizeRequest{SQL: src})
			return err
		})
	}}, nil
}

// handlerRung calls the server's mux on a recorder: the server without
// the socket, the client, or net/http's connection handling.
func (l *ladder) handlerRung() (rung, error) {
	q := l.s.quota()
	srv, err := server.New(l.cat, server.Config{Default: &q})
	if err != nil {
		return rung{}, err
	}
	h := srv.Handler()
	return rung{
		close: func() error { return srv.Drain(context.Background()) },
		run: func(id int, src string) error {
			return l.rootSpan("server.handler", id, true, func(int) error {
				body, err := json.Marshal(&reoptclient.ReoptimizeRequest{SQL: src})
				if err != nil {
					return err
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/reoptimize", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					return fmt.Errorf("status %d", rec.Code)
				}
				var out reoptclient.ReoptimizeResponse
				return json.Unmarshal(rec.Body.Bytes(), &out)
			})
		},
	}, nil
}

// sessionRung calls Session.Parse and Session.Reoptimize under the
// quota's options; cache is the session's, for its counters afterwards.
func (l *ladder) sessionRung(q server.Quota, traced bool) (rung, *reopt.WorkloadCache, error) {
	cache := reopt.NewWorkloadCache(0)
	sess, err := reopt.Open(l.cat, sessionOptions(q, cache)...)
	if err != nil {
		return rung{}, nil, err
	}
	return rung{close: sess.Close, run: func(id int, src string) error {
		return l.rootSpan("session.reoptimize", id, traced, func(root int) error {
			var parse int
			if root >= 0 {
				parse = l.tr.begin("sql.parse", "session.reoptimize", id, root)
			}
			query, err := sess.Parse(src)
			if root >= 0 {
				l.tr.end(parse)
			}
			if err != nil {
				return err
			}
			_, err = sess.Reoptimize(context.Background(), query)
			return err
		})
	}}, cache, nil
}

// coreCounts is what the core rung counts per measured query.
type coreCounts struct {
	queries, rounds, plans, gamma, unconverged, optCalls int
	validations, validatedPlans                          int
}

// coreRung runs core.Reoptimizer wired as Session wires it — shared
// cache, scheduler client as Validator — with the timing wrapper
// around the validator, and rebuilds the optimizer's spans from the
// per-round times the result carries.
func (l *ladder) coreRung() (rung, *coreCounts) {
	const name = "core.reoptimize"
	q := l.s.quota()
	opt := reopt.NewOptimizer(l.cat, reopt.DefaultOptimizerConfig())
	cache := reopt.NewWorkloadCache(0)
	sched := sampling.NewScheduler(l.cat, q.Workers, time.Duration(q.SchedulerWindow))
	sched.SetMemBudget(q.MemoryBudget)
	sched.SetShards(q.SampleShards)
	sched.SetTemplates(q.TemplateSharing)
	cc := &coreCounts{}
	run := func(id int, src string) error {
		query, err := reopt.Parse(src, l.cat)
		if err != nil {
			return err
		}
		return l.rootSpan(name, id, true, func(root int) error {
			r := core.New(opt, l.cat)
			r.Opts = core.Options{Workers: q.Workers, SampleShards: q.SampleShards, Cache: cache,
				MemBudget: q.MemoryBudget, TemplateSharing: q.TemplateSharing}
			client := sched.Register()
			defer client.Close()
			tv := &timedValidator{inner: client, tr: l.tr, rung: name, query: id, parent: root}
			r.Opts.Validator = client
			if root >= 0 {
				r.Opts.Validator = tv
			}
			first := len(l.tr.spans)
			res, err := r.ReoptimizeCtx(context.Background(), query)
			if err != nil || root < 0 {
				return err
			}
			// Rounds run back to back — optimize, validate, optimize, … —
			// so each optimizer call starts where the previous validation
			// ended; the terminal call that re-produces the last plan is
			// what is left of ReoptTime.
			at := l.tr.spans[root].Start
			terminal := res.ReoptTime
			for i, rd := range res.Rounds {
				l.tr.add(span{Name: "optimizer.optimize", Rung: name, Query: id, Parent: root,
					Start: at, End: at + int64(rd.OptimizeTime)})
				if v := first + i; v < len(l.tr.spans) && l.tr.spans[v].Name == "sampling.validate" {
					at = l.tr.spans[v].End
				}
				if i > 0 {
					terminal -= rd.OptimizeTime
				}
				terminal -= rd.SamplingTime
				cc.gamma += rd.GammaAdded
			}
			cc.optCalls += len(res.Rounds)
			if res.Converged && terminal > 0 {
				l.tr.add(span{Name: "optimizer.optimize", Rung: name, Query: id, Parent: root,
					Start: at, End: at + int64(terminal)})
				cc.optCalls++
			}
			cc.queries++
			cc.rounds += len(res.Rounds)
			cc.plans += res.NumPlans
			if !res.Converged {
				cc.unconverged++
			}
			cc.validations += tv.calls
			cc.validatedPlans += tv.plans
			return nil
		})
	}
	return rung{run: run, close: func() error { return nil }}, cc
}

// sliceIssuer issues the queries one per call, in order, cycling.
func sliceIssuer(sqls []string) *issuer {
	next := 0
	return &issuer{next: func() call {
		c := call{kind: callReoptimize, sql: sqls[next%len(sqls) : next%len(sqls)+1]}
		next++
		return c
	}}
}

// closedPair replays the warm-up prefix and then the measured queries
// through do from the given number of closed-loop clients, spans off.
func (l *ladder) closedPair(clients int, do func(call) callResult) (loadReport, error) {
	is := sliceIssuer(append(append([]string(nil), l.warm...), l.sqls...))
	if _, err := closedLoop(clients, 0, len(l.warm), is, do); err != nil {
		return loadReport{}, err
	}
	lr, err := closedLoop(clients, 0, len(l.sqls), is, do)
	l.rep.addLoad(lr)
	return lr, err
}

// untraced is the roundtrip rung with spans off and 1 or 2 clients,
// for the concurrency penalty.
func (l *ladder) untraced(clients int) (float64, error) {
	e, err := serve(l.cat, l.s.quota())
	if err != nil {
		return 0, err
	}
	lr, err := l.closedPair(clients, e.do)
	if err != nil {
		e.close()
		return 0, err
	}
	var lat []float64
	for _, sm := range lr.samples {
		lat = append(lat, ms(sm.latency))
	}
	return median(lat), e.close()
}

// concurrent replays the measured queries through Session.Reoptimize
// from two goroutines and returns the wall time; on toggles the
// workload scheduler.
func (l *ladder) concurrent(schedulerOn bool) (time.Duration, reopt.SchedulerStats, error) {
	q := l.s.quota()
	q.Scheduler = schedulerOn
	sess, err := reopt.Open(l.cat, sessionOptions(q, reopt.NewWorkloadCache(0))...)
	if err != nil {
		return 0, reopt.SchedulerStats{}, err
	}
	defer sess.Close()
	do := func(c call) callResult {
		query, err := sess.Parse(c.sql[0])
		if err == nil {
			_, err = sess.Reoptimize(context.Background(), query)
		}
		if err != nil {
			return callResult{failures: 1}
		}
		return callResult{queries: 1}
	}
	lr, err := l.closedPair(maxConns, do)
	return lr.elapsed, sess.SchedulerStats(), err
}

// validateRuns times Session.Validate over the first plans of the
// measured queries under one (workers, shards) setting. Without a
// shared cache every call is cold; with one, the second pass is warm.
func (l *ladder) validateRuns(plans []*reopt.Plan, workers, shards int, shared bool) (cold, warm []float64, err error) {
	opts := []reopt.SessionOption{reopt.WithWorkers(workers), reopt.WithSampleShards(shards)}
	if shared {
		opts = append(opts, reopt.WithSharedCache(0))
	}
	sess, err := reopt.Open(l.cat, opts...)
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	pass := func() ([]float64, error) {
		var out []float64
		for _, p := range plans {
			t0 := time.Now()
			if _, err := sess.Validate(context.Background(), p); err != nil {
				return nil, err
			}
			out = append(out, ms(time.Since(t0)))
		}
		return out, nil
	}
	if !shared {
		if _, err := pass(); err != nil { // builds shard layouts, untimed
			return nil, nil, err
		}
	}
	if cold, err = pass(); err != nil {
		return nil, nil, err
	}
	if shared {
		warm, err = pass()
	}
	return cold, warm, err
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
