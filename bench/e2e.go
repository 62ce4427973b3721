package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"reopt"
	"reopt/internal/server"
	"reopt/reoptclient"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of one workload produced.
type report struct {
	workload  string
	metrics   map[string]metric
	notes     []string // sample counts and validity remarks, printed, not parsed
	attempted int
	failed    int
	correct   bool
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// addLoad counts a load phase's calls: every call that came due was
// attempted; a call that failed, an item of a batch that did, and a
// call an open loop never got to send each count as failed.
func (r *report) addLoad(lr loadReport) {
	r.attempted += lr.offered
	r.failed += lr.backlog
	for _, sm := range lr.samples {
		r.failed += sm.res.failures
	}
}

// addGuard counts the guard's checks; a wrong answer also marks the
// whole run incorrect.
func (r *report) addGuard(q quality) {
	r.attempted += q.checked
	r.failed += len(q.failures)
	r.correct = r.correct && len(q.failures) == 0
	for _, f := range q.failures {
		r.notef("quality: %s", f)
	}
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metric{}, correct: true}
}

// env is the system under test: the daemon's server on a loopback TCP
// listener inside this process, and the client the load goes through.
type env struct {
	cat    *reopt.Catalog
	srv    *server.Server
	client *reoptclient.Client
	hc     *http.Client
	served chan error
}

// serve puts a fresh server for the workload's quota on 127.0.0.1:0.
// Retries are off, so a shed request is counted, not hidden.
func serve(cat *reopt.Catalog, q server.Quota) (*env, error) {
	srv, err := server.New(cat, server.Config{Default: &q})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{cat: cat, srv: srv, served: make(chan error, 1)}
	go func() {
		defer func() {
			if r := recover(); r != nil {
				e.served <- fmt.Errorf("serve panicked: %v", r)
			}
		}()
		e.served <- srv.Serve(ln)
	}()
	e.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxConns, MaxConnsPerHost: maxConns}}
	e.client = reoptclient.New("http://"+ln.Addr().String(),
		reoptclient.WithRetries(0), reoptclient.WithHTTPClient(e.hc))
	return e, nil
}

// close drains the server and waits for its serve goroutine to end.
func (e *env) close() error {
	e.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		return err
	}
	if err := <-e.served; err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// do sends one generated call and classifies the answer.
func (e *env) do(c call) callResult {
	ctx := context.Background()
	var res callResult
	addReopt := func(r *reoptclient.ReoptimizeResponse) {
		res.queries++
		res.reoptCalls++
		res.reoptTime += time.Duration(r.ReoptTime)
	}
	switch c.kind {
	case callReoptimize:
		r, err := e.client.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: c.sql[0]})
		if err != nil {
			res.failures++
			break
		}
		addReopt(r)
	case callWorkload:
		r, err := e.client.Workload(ctx, &reoptclient.WorkloadRequest{SQL: c.sql, Parallelism: 2})
		if err != nil {
			res.failures++
			break
		}
		for _, it := range r.Items {
			if it.Result == nil {
				res.failures++
				continue
			}
			addReopt(it.Result)
		}
	case callValidate:
		r, err := e.client.Validate(ctx, &reoptclient.ValidateRequest{SQL: c.sql})
		if err != nil {
			res.failures++
			break
		}
		res.queries += len(r.Estimates)
	}
	return res
}

// load runs the timed phase in the workload's own loop shape. A smoke
// run offers a quarter of the rate: it shares its cores with whatever
// else the test binary runs, and must still never fall behind.
func (s *spec) load(d time.Duration, smoke bool, is *issuer, do func(call) callResult) (loadReport, error) {
	if s.clients > 0 {
		return closedLoop(s.clients, d, 0, is, do)
	}
	return openLoop(s.rate/float64(pick(smoke, 4, 1)), d, is, do)
}

// warm sends the warm-up calls as fast as they are answered, whatever
// the timed phase's loop shape, so set-up time follows the program's
// speed and not a pacer's.
func (s *spec) warm(calls int, is *issuer, do func(call) callResult) error {
	clients := s.clients
	if clients == 0 {
		clients = maxConns
	}
	_, err := closedLoop(clients, 0, calls, is, do)
	return err
}

// start serves the catalog and runs the warm-up calls, which begin the
// seed's sequence; the returned issuer continues it.
func (s *spec) start(cat *reopt.Catalog, seed int64, smoke bool) (*env, *issuer, error) {
	e, err := serve(cat, s.quota())
	if err != nil {
		return nil, nil, err
	}
	is := &issuer{next: s.newGen(seed)}
	if err := s.warm(pick(smoke, s.warmCalls/10, s.warmCalls), is, e.do); err != nil {
		e.close()
		return nil, nil, err
	}
	return e, is, nil
}

// setUp is everything a user waits for before the first timed call:
// generate the catalog (statistics and samples included), build the
// server, open the listener, and run the warm-up calls.
func (s *spec) setUp(seed int64, smoke bool) (*env, *issuer, time.Duration, error) {
	t0 := time.Now()
	cat, err := s.catalog(smoke)
	if err != nil {
		return nil, nil, 0, err
	}
	e, is, err := s.start(cat, seed, smoke)
	return e, is, time.Since(t0), err
}

// setupRepeats is how many complete set-ups one run times; setup_s is
// their median, because a single set-up on a shared box is one draw.
const setupRepeats = 3

// runE2E measures the end-to-end metrics of one workload, tracing off.
func runE2E(s *spec, seed int64, d time.Duration, smoke bool) (*report, error) {
	rep := newReport(s.name)
	e, is, setup, err := s.setUp(seed, smoke)
	if err != nil {
		return nil, err
	}
	setups := []float64{setup.Seconds()}

	lr, err := s.load(d, smoke, is, e.do)
	if err != nil {
		e.close()
		return nil, err
	}
	ws := windows(lr.samples, d)
	queries := 0
	for _, sm := range lr.samples {
		queries += sm.res.queries
	}
	if len(ws.p50) == 0 {
		e.close()
		return nil, fmt.Errorf("%s: no call answered in %v", s.name, d)
	}
	rep.addLoad(lr)
	// Read before the guard runs: executing the optimizer's original OTT
	// plans materializes far more than the server under test ever holds.
	rss := peakRSSMB()

	t0 := time.Now()
	q := guard(e.cat, s.ott, s.singles(qualitySeed, qualityQueries), e.answer)
	rep.addGuard(q)
	rep.notef("quality: %d queries checked in %.2f s", q.checked, time.Since(t0).Seconds())
	if err := e.close(); err != nil {
		return nil, err
	}

	// The remaining set-ups run after the timed phase and the memory
	// reading, so neither sees their garbage.
	for len(setups) < setupRepeats && !smoke {
		e, _, setup, err := s.setUp(seed, smoke)
		if err != nil {
			return nil, err
		}
		if err := e.close(); err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}

	rep.set("setup_s", median(setups), "s")
	rep.set("throughput_qps", float64(queries)/lr.elapsed.Seconds(), "1/s")
	rep.set("latency_p50_ms", median(ws.p50), "ms")
	rep.set("latency_p95_ms", median(ws.tail), "ms")
	rep.set("reopt_overhead_ms", median(ws.overhead), "ms")
	rep.notef("timed phase: %d calls in %.2f s; latencies and overhead are medians over %d windows, tail at p%g",
		len(lr.samples), lr.elapsed.Seconds(), len(ws.p50), ws.tailAt)
	rep.set("plan_work_ratio", q.workRatio(), "ratio")
	rep.set("failed_share", float64(rep.failed)/float64(rep.attempted), "share")
	rep.set("peak_rss_mb", rss, "MB")
	if s.clients == 0 {
		var lag []float64
		for _, sm := range lr.samples {
			lag = append(lag, ms(sm.lag))
		}
		_, lagTail := supportedTail(lag, 99, 95, 90)
		rep.notef("open loop: offered %d calls, backlog %d, lag tail %.3f ms", lr.offered, lr.backlog, lagTail)
	}
	return rep, nil
}

// windowed holds one value per window of the timed phase. Each
// end-to-end latency is the median over windows — the typical half
// second's p50 and p95: a burst from a neighbour on a shared box, or a
// garbage-collection cycle, spoils a few windows, not the median. What
// those episodes do to the tail as a whole is the traced run's
// server.latency_p99_ms.
type windowed struct {
	p50, tail, overhead []float64
	tailAt              float64 // the percentile the tail is read at
}

const (
	maxWindows     = 40
	callsPerWindow = 20 * tailSamples // so each window supports its own p95
)

// windows cuts the phase into equal windows by when each call was
// answered — as many, up to maxWindows, as leave every window enough
// calls for a p95 — and computes each window's metrics.
func windows(samples []sample, d time.Duration) windowed {
	k := min(maxWindows, max(1, len(samples)/callsPerWindow))
	width := d / time.Duration(k)
	buckets := make([][]sample, k)
	for _, sm := range samples {
		i := min(k-1, int(sm.done/width))
		buckets[i] = append(buckets[i], sm)
	}
	w := windowed{tailAt: tailFor(len(samples)/k, 95, 90, 75)}
	for _, b := range buckets {
		var lat []float64
		var reoptCalls int
		var reoptTime time.Duration
		for _, sm := range b {
			lat = append(lat, ms(sm.latency))
			reoptCalls += sm.res.reoptCalls
			reoptTime += sm.res.reoptTime
		}
		if len(lat) == 0 || reoptCalls == 0 {
			continue
		}
		asc := sorted(lat)
		w.p50 = append(w.p50, quantile(asc, 0.5))
		w.tail = append(w.tail, quantile(asc, w.tailAt/100))
		w.overhead = append(w.overhead, ms(reoptTime)/float64(reoptCalls))
	}
	return w
}

// answer answers one query over HTTP for the quality guard.
func (e *env) answer(sql string) (string, bool, error) {
	r, err := e.client.Reoptimize(context.Background(), &reoptclient.ReoptimizeRequest{SQL: sql})
	if err != nil {
		return "", false, err
	}
	return r.Fingerprint, r.Converged, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where that file does not exist).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
