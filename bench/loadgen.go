package main

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// maxConns caps the generator's goroutines and connections at the
// reference box's core count, so the load generator never takes more
// of the machine than the server it shares it with.
const maxConns = 2

// sample is the outcome of one generated call.
type sample struct {
	latency time.Duration // closed loop: from send; open loop: from the due instant
	lag     time.Duration // open loop: how late the call was sent
	done    time.Duration // when the answer arrived, from the phase's start
	res     callResult
}

// callResult is what one call answered.
type callResult struct {
	queries    int           // successfully answered queries (batch items count one each)
	reoptCalls int           // answers that carry a server-reported reopt_time
	reoptTime  time.Duration // their sum
	failures   int           // non-200 call (1) or per-item errors
}

// loadReport is one timed phase.
type loadReport struct {
	samples []sample
	elapsed time.Duration
	offered int // open loop: calls that came due; closed loop: calls sent
	backlog int // open loop: calls due but never sent
}

// issuer hands out the call sequence in order; do runs call i.
type issuer struct {
	mu   sync.Mutex
	next func() call
	n    int
}

// take returns the next call and its index in the current phase, or
// ok = false — consuming nothing — once limit calls were taken.
func (is *issuer) take(limit int) (i int, c call, ok bool) {
	is.mu.Lock()
	defer is.mu.Unlock()
	if is.n >= limit {
		return 0, call{}, false
	}
	is.n++
	return is.n - 1, is.next(), true
}

// runWorkers starts n goroutines running body and waits for them; a
// panic in one is returned as an error instead of killing the run.
func runWorkers(n int, body func(worker int)) error {
	var wg sync.WaitGroup
	errs := make(chan error, n) // sized to the number of sends
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("load generator worker %d panicked: %v", w, r)
				}
			}()
			body(w)
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// closedLoop runs clients goroutines that each send their next call the
// moment the previous one answers, until d has passed (stop == 0) or
// stop calls were sent.
func closedLoop(clients int, d time.Duration, stop int, is *issuer, do func(call) callResult) (loadReport, error) {
	per := make([][]sample, clients)
	start := time.Now()
	deadline := start.Add(d)
	is.n = 0
	limit := stop
	if stop == 0 {
		limit = math.MaxInt
	}
	err := runWorkers(clients, func(w int) {
		for {
			if stop == 0 && !time.Now().Before(deadline) {
				return
			}
			_, c, ok := is.take(limit)
			if !ok {
				return
			}
			t0 := time.Now()
			res := do(c)
			now := time.Now()
			per[w] = append(per[w], sample{latency: now.Sub(t0), done: now.Sub(start), res: res})
		}
	})
	rep := loadReport{elapsed: time.Since(start)}
	for _, s := range per {
		rep.samples = append(rep.samples, s...)
	}
	rep.offered = len(rep.samples)
	return rep, err
}

// openLoopGrace is how long after the phase's end a queued call may
// still be sent; the last call is due one interval before the end, so
// without a grace an on-time run would report a backlog of one.
const openLoopGrace = time.Second

// openLoop offers calls at a fixed rate: call i is due at start +
// i/rate whether or not earlier calls have answered. At most maxConns
// calls are in flight; a call that finds both connections busy waits,
// and its latency is timed from when it was due, so a stall is charged
// to every call queued behind it.
func openLoop(rate float64, d time.Duration, is *issuer, do func(call) callResult) (loadReport, error) {
	per := make([][]sample, maxConns)
	interval := time.Duration(float64(time.Second) / rate)
	total := int(d / interval)
	start := time.Now()
	end := start.Add(d)
	is.n = 0
	err := runWorkers(maxConns, func(w int) {
		for {
			i, c, ok := is.take(total)
			if !ok {
				return
			}
			due := start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			t0 := time.Now()
			if t0.Sub(end) > openLoopGrace {
				return // still queued well after the phase ended: backlog
			}
			res := do(c)
			now := time.Now()
			per[w] = append(per[w], sample{latency: now.Sub(due), lag: t0.Sub(due), done: now.Sub(start), res: res})
		}
	})
	rep := loadReport{elapsed: time.Since(start), offered: total}
	for _, s := range per {
		rep.samples = append(rep.samples, s...)
	}
	rep.backlog = total - len(rep.samples)
	return rep, err
}
