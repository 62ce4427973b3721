package main

import (
	"fmt"
	"runtime"
	"time"

	"reopt"
	"reopt/internal/server"
	"reopt/internal/vec"
)

const (
	validatePlans = 32 // plans per stand-alone validation pass
	validateCalls = 12 // /v1/validate calls timed
)

// runTrace produces the per-layer metrics of one workload: the traced
// ladder, the stand-alone layers, the comparisons that need every core, a loaded phase in the workload's own loop shape, and the
// floors and set-up parts.
func runTrace(s *spec, seed int64, d time.Duration, smoke bool, traceOut string) (*report, error) {
	rep := newReport(s.name)
	n := pick(smoke, max(2*tpchBatchSize, s.ladderQueries/10), s.ladderQueries)

	t0 := time.Now()
	cat, err := s.catalog(smoke)
	if err != nil {
		return nil, err
	}
	generate := time.Since(t0)

	qs := s.singles(seed, 2*n)
	l := &ladder{s: s, cat: cat, tr: &tracer{t0: time.Now()}, warm: qs[:n], sqls: qs[n:], rep: rep}
	if err := l.ladderMetrics(); err != nil {
		return nil, err
	}
	plans, err := l.standaloneMetrics()
	if err != nil {
		return nil, err
	}
	if err := l.parallelMetrics(plans); err != nil {
		return nil, err
	}
	if err := l.loadedMetrics(seed, d/2, smoke); err != nil {
		return nil, err
	}
	if err := l.floorMetrics(generate); err != nil {
		return nil, err
	}
	rep.set("server.non200_count", float64(rep.failed), "count")
	if traceOut != "" {
		if err := writeJSON(traceOut, l.tr.spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// ladderMetrics steps the rungs, outermost first, through the queries
// and reports each layer's self time by subtraction, what the core rung
// counted, and — from a fifth rung, the session with template sharing
// flipped — what sharing buys serial traffic.
func (l *ladder) ladderMetrics() error {
	rep := l.rep
	roundtrip, err := l.roundtripRung()
	if err != nil {
		return err
	}
	handler, err := l.handlerRung()
	if err != nil {
		return err
	}
	session, cache, err := l.sessionRung(l.s.quota(), true)
	if err != nil {
		return err
	}
	core, cc := l.coreRung()
	flipped := l.s.quota()
	flipped.TemplateSharing = !flipped.TemplateSharing
	other, _, err := l.sessionRung(flipped, false)
	if err != nil {
		return err
	}
	lat, err := l.lockstep(roundtrip, handler, session, core, other)
	if err != nil {
		return err
	}
	if cc.queries == 0 {
		return fmt.Errorf("%s: the core rung answered nothing", l.s.name)
	}
	parse := l.tr.durations("sql.parse", "session.reoptimize")
	optDur := l.tr.durations("optimizer.optimize", "core.reoptimize")
	valDur := l.tr.durations("sampling.validate", "core.reoptimize")
	coreDur := l.tr.durations("core.reoptimize", "core.reoptimize")
	coreSelf := l.tr.selfDurations("core.reoptimize", "core.reoptimize")

	rt, hd, se := lat[0], lat[1], lat[2]
	self := ladderSelf([][]float64{rt, hd, se, l.tr.perQuery("core.reoptimize", len(l.sqls))})
	rep.set("server.transport_ms", self[0], "ms")
	rep.set("server.handler_self_ms", self[1], "ms")
	rep.set("session.self_ms", self[2]-median(parse), "ms")
	rep.set("sql.parse_us", median(parse)*1000, "us")
	rep.set("core.loop_self_ms", median(coreSelf), "ms")
	rep.set("trace.overhead_ratio", tracingOverhead(rt, hd), "ratio")
	rep.notef("ladder: %d queries per rung after %d warm-up, rungs in lock-step; medians roundtrip %.4f handler %.4f session %.4f core %.4f ms",
		len(l.sqls), len(l.warm), median(answered(rt)), median(answered(hd)), median(answered(se)), median(coreDur))

	tOn, tOff := sum(answered(se)), sum(answered(lat[4]))
	if !l.s.templates {
		tOn, tOff = tOff, tOn
	}
	rep.set("sampling.template_on_speedup", ratio(tOff, tOn), "ratio")

	nq := float64(cc.queries)
	rep.set("optimizer.time_share", ratio(sum(optDur), sum(coreDur)), "share")
	rep.set("optimizer.calls_per_query", float64(cc.optCalls)/nq, "count")
	rep.set("core.rounds_per_query", float64(cc.rounds)/nq, "count")
	rep.set("core.plans_per_query", float64(cc.plans)/nq, "count")
	rep.set("core.gamma_added_per_query", float64(cc.gamma)/nq, "count")
	rep.set("core.unconverged_share", float64(cc.unconverged)/nq, "share")
	rep.set("sampling.validate_ms", median(valDur), "ms")
	rep.set("sampling.time_share", ratio(sum(valDur), sum(coreDur)), "share")
	rep.set("sampling.validations_per_query", float64(cc.validations)/nq, "count")
	rep.set("sampling.plans_per_validation", ratio(float64(cc.validatedPlans), float64(cc.validations)), "count")
	hits, misses := cache.Stats()
	thits, tmisses := cache.TemplateStats()
	rep.set("sampling.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	rep.set("sampling.template_hit_ratio", ratio(float64(thits), float64(thits+tmisses)), "ratio")
	rep.set("sampling.cache_entries", float64(cache.Len()), "count")
	return nil
}

// standaloneMetrics times layers on their own: the optimizer once per
// query without Γ, and Session.Validate cold, warm, and under the
// fan-out knobs.
func (l *ladder) standaloneMetrics() ([]*reopt.Plan, error) {
	opt := reopt.NewOptimizer(l.cat, reopt.DefaultOptimizerConfig())
	var plans []*reopt.Plan
	var optimize []float64
	sampleRows := 0
	for _, src := range l.sqls {
		query, err := reopt.Parse(src, l.cat)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		p, err := opt.Optimize(query, nil)
		if err != nil {
			return nil, err
		}
		optimize = append(optimize, ms(time.Since(t0)))
		if len(plans) == validatePlans {
			continue
		}
		plans = append(plans, p)
		for _, t := range query.Tables {
			st, err := l.cat.Sample(t.Name)
			if err != nil {
				return nil, err
			}
			sampleRows += st.NumRows()
		}
	}
	cold1, _, err := l.validateRuns(plans, 1, 1, false)
	if err != nil {
		return nil, err
	}
	_, warm, err := l.validateRuns(plans, 0, 1, true)
	if err != nil {
		return nil, err
	}
	rep := l.rep
	rep.set("optimizer.optimize_ms", median(optimize), "ms")
	rep.set("executor.validate_cold_ms", median(cold1), "ms")
	rep.set("executor.validate_warm_ms", median(warm), "ms")
	rep.set("executor.sample_rows_per_s", ratio(float64(sampleRows), sum(cold1)/1000), "rows/s")
	rep.notef("validation: %d plans over %d sample rows; cold is workers=1 shards=1 with no cache", len(plans), sampleRows)
	return plans, nil
}

// allCores lifts the one-processor pin while fn runs, for the rungs
// whose whole point is a second core.
func allCores(fn func() error) error {
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(prev)
	return fn()
}

// effectiveCores spins one goroutine, then one per CPU at once: n
// times the first time over the second is how many cores the box
// really gave at this moment, the caveat on every parallel ratio.
func effectiveCores() (float64, error) {
	spin := func() {
		x := uint64(1)
		for i := 0; i < 40_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		runtime.KeepAlive(x)
	}
	t0 := time.Now()
	spin()
	single := time.Since(t0)
	n := runtime.NumCPU()
	t0 = time.Now()
	err := runWorkers(n, func(int) { spin() })
	return float64(n) * single.Seconds() / time.Since(t0).Seconds(), err
}

// parallelMetrics runs, on all cores, the comparisons that need them:
// one client against two, the scheduler on and off under two concurrent
// queries, and validation's worker and shard fan-out.
func (l *ladder) parallelMetrics(plans []*reopt.Plan) error {
	rep := l.rep
	return allCores(func() error {
		cores, err := effectiveCores()
		if err != nil {
			return err
		}
		rep.set("process.cores_effective", cores, "count")
		one, err := l.untraced(1)
		if err != nil {
			return err
		}
		two, err := l.untraced(2)
		if err != nil {
			return err
		}
		rep.set("server.concurrency_penalty", ratio(two, one), "ratio")
		on, stats, err := l.concurrent(true)
		if err != nil {
			return err
		}
		off, _, err := l.concurrent(false)
		if err != nil {
			return err
		}
		rep.set("sampling.sched_on_speedup", ratio(off.Seconds(), on.Seconds()), "ratio")
		rep.set("sampling.sched_req_per_wave", ratio(float64(stats.Requests), float64(stats.Waves)), "ratio")
		rep.set("sampling.sched_coalesced_share", ratio(float64(stats.Coalesced), float64(stats.Requests)), "share")
		cold1, _, err := l.validateRuns(plans, 1, 1, false)
		if err != nil {
			return err
		}
		cold2, _, err := l.validateRuns(plans, 2, 1, false)
		if err != nil {
			return err
		}
		cold24, _, err := l.validateRuns(plans, 2, 4, false)
		if err != nil {
			return err
		}
		rep.set("executor.workers2_speedup", ratio(sum(cold1), sum(cold2)), "ratio")
		rep.set("executor.shards4_speedup", ratio(sum(cold2), sum(cold24)), "ratio")
		return nil
	})
}

// pollMax samples read every millisecond until stop closes and returns
// the largest value seen.
func pollMax(stop <-chan struct{}, read func() int) <-chan int {
	out := make(chan int, 1)
	go func() {
		top := 0
		defer func() {
			_ = recover() // a failed poll only loses a diagnostic
			out <- top
		}()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				top = max(top, read())
			}
		}
	}()
	return out
}

// loadedMetrics runs the workload's own loop against a fresh server,
// spans off: the tail, the load generator's own behaviour, what the
// process allocates per query, /v1/validate as a call of its own, and
// the guard, whose executions are the executor layer's numbers.
func (l *ladder) loadedMetrics(seed int64, d time.Duration, smoke bool) error {
	rep := l.rep
	e, is, err := l.s.start(l.cat, seed, smoke)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	inflight := pollMax(stop, func() int { return e.srv.TenantInFlight(server.DefaultTenant) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lr, err := l.s.load(d, smoke, is, e.do)
	runtime.ReadMemStats(&after)
	close(stop)
	rep.set("session.inflight_max", float64(<-inflight), "count")
	if err != nil {
		e.close()
		return err
	}
	var lat, lag []float64
	queries := 0
	for _, sm := range lr.samples {
		lat = append(lat, ms(sm.latency))
		lag = append(lag, ms(sm.lag))
		queries += sm.res.queries
	}
	rep.addLoad(lr)
	if queries == 0 {
		e.close()
		return fmt.Errorf("%s: the loaded phase answered nothing", l.s.name)
	}
	p, tail := supportedTail(lat, 99, 95, 90)
	_, lagTail := supportedTail(lag, 99, 95, 90)
	rep.set("server.latency_p99_ms", tail, "ms")
	rep.notef("loaded phase: %d calls in %.1f s, tail reported at p%g", len(lat), lr.elapsed.Seconds(), p)
	rep.set("loadgen.offered_qps", float64(lr.offered)/lr.elapsed.Seconds(), "1/s")
	rep.set("loadgen.achieved_qps", float64(len(lr.samples))/lr.elapsed.Seconds(), "1/s")
	rep.set("loadgen.lag_p99_ms", lagTail, "ms")
	rep.set("loadgen.backlog_end", float64(lr.backlog), "count")
	rep.set("process.allocs_per_query", float64(after.Mallocs-before.Mallocs)/float64(queries), "count")
	rep.set("process.alloc_bytes_per_query", float64(after.TotalAlloc-before.TotalAlloc)/float64(queries), "B")
	rep.set("process.gc_cpu_share", after.GCCPUFraction, "share")
	rep.set("process.gc_pause_total_ms", ms(time.Duration(after.PauseTotalNs-before.PauseTotalNs)), "ms")

	var validate []float64
	for i := 0; i+tpchBatchSize <= len(l.sqls) && len(validate) < validateCalls; i += tpchBatchSize {
		rep.attempted++
		t0 := time.Now()
		if res := e.do(call{kind: callValidate, sql: l.sqls[i : i+tpchBatchSize]}); res.failures > 0 {
			rep.failed++
			continue
		}
		validate = append(validate, ms(time.Since(t0)))
	}
	rep.set("server.validate_call_ms", median(validate), "ms")

	q := guard(l.cat, l.s.ott, l.s.singles(qualitySeed, qualityQueries), e.answer)
	rep.addGuard(q)
	rep.set("executor.run_final_ms", ms(q.finalRun)/float64(q.checked), "ms")
	rep.set("executor.final_operator_evals", float64(q.finalEvals), "count")
	rep.set("executor.original_operator_evals", float64(q.originalEvals), "count")
	return e.close()
}

// floorMetrics reports the kernel floor and the parts of set-up.
// Rebuilding the samples comes last of all: it starts a new sample
// epoch, which nothing measured above may see.
func (l *ladder) floorMetrics(generate time.Duration) error {
	largest, total := 0, 0
	for _, name := range l.cat.TableNames() {
		st, err := l.cat.Sample(name)
		if err != nil {
			return err
		}
		total += st.NumRows()
		largest = max(largest, st.NumRows())
	}
	rep := l.rep
	rep.set("vec.int64_range_ns_per_row", rangeKernelNsPerRow(largest), "ns")
	t0 := time.Now()
	l.cat.BuildSamples(dbSeed)
	build := time.Since(t0)
	rep.set("catalog.build_samples_ms", ms(build), "ms")
	rep.set("catalog.generate_ms", ms(generate-build), "ms")
	rep.set("storage.sample_rows_total", float64(total), "count")
	rep.set("process.goroutines_end", float64(runtime.NumGoroutine()), "count")
	return nil
}

// rangeKernelNsPerRow times vec.Int64Range, the BETWEEN kernel every
// range scan bottoms out in, over a column as long as the workload's
// largest sample: the floor under a cold validation.
func rangeKernelNsPerRow(rows int) float64 {
	rows = max(1, rows)
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	bm := vec.NewBitmap(rows)
	passes := max(1, 20_000_000/rows)
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		vec.Int64Range(bm, vals, 100, 500, 0, rows)
	}
	return float64(time.Since(t0)) / float64(passes) / float64(rows)
}
