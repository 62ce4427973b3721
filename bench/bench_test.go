package main

import (
	"bytes"
	"context"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"reopt"
)

// sequence renders the first n calls of a workload's seed.
func sequence(s *spec, seed int64, n int) string {
	gen := s.newGen(seed)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		c := gen()
		sb.WriteString(strings.Join(c.sql, "\n"))
		sb.WriteByte(byte('0' + c.kind))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, s := range specs() {
		a, b, other := sequence(s, 7, 50), sequence(s, 7, 50), sequence(s, 8, 50)
		if a != b {
			t.Errorf("%s: seed 7 generated two different sequences", s.name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 generated the same sequence", s.name)
		}
	}
}

func TestGeneratedSQLParses(t *testing.T) {
	for _, s := range specs() {
		cat, err := s.catalog(true)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for i, src := range s.singles(3, 200) {
			if _, err := reopt.Parse(src, cat); err != nil {
				t.Fatalf("%s: query %d does not parse: %v\n%s", s.name, i, err, src)
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if p, v := supportedTail(xs, 99, 95); p != 99 || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("1000 samples leave 10 beyond p99: got p%g = %g, want p99 = 989.01", p, v)
	}
	if p, _ := supportedTail(xs[:999], 99, 95); p != 95 {
		t.Errorf("999 samples leave fewer than 10 beyond p99: got p%g, want p95", p)
	}
	if p, _ := supportedTail(xs[:100], 99, 95, 90); p != 90 {
		t.Errorf("100 samples support p90 as their tail, got p%g", p)
	}
	if p, v := supportedTail(xs[:19], 99, 95, 90); p != 50 || v != 9 {
		t.Errorf("19 samples support only their median: got p%g = %g", p, v)
	}
	if v := median(xs); v != 499.5 {
		t.Errorf("median of 0..999 = %g, want 499.5", v)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
}

// TestOpenLoopTimesFromDue stalls a fake server for 200 ms: every call
// due during the stall must carry its wait in its latency and in its
// lag, although each is answered at once when finally sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	var once sync.Once
	var start time.Time
	do := func(call) callResult {
		once.Do(func() { start = time.Now() })
		if since := time.Since(start); since > 50*time.Millisecond && since < 250*time.Millisecond {
			time.Sleep(250*time.Millisecond - since)
		}
		return callResult{queries: 1}
	}
	is := &issuer{next: func() call { return call{sql: []string{""}} }}
	rep, err := openLoop(400, 500*time.Millisecond, is, do)
	if err != nil {
		t.Fatal(err)
	}
	if rep.backlog != 0 || len(rep.samples) != rep.offered {
		t.Fatalf("offered %d, sent %d, backlog %d", rep.offered, len(rep.samples), rep.backlog)
	}
	queuedBehind := 0
	var lag []float64
	for _, sm := range rep.samples {
		lag = append(lag, ms(sm.lag))
		if sm.latency >= 100*time.Millisecond && sm.latency-sm.lag < 50*time.Millisecond {
			queuedBehind++ // answered fast once sent, yet charged the stall
		}
	}
	if queuedBehind < 10 {
		t.Errorf("%d calls carry the stall they queued behind, want at least 10", queuedBehind)
	}
	if p, v := supportedTail(lag, 99, 95, 90); v < 50 {
		t.Errorf("lag p%g = %.1f ms; a 200 ms stall must surface in it", p, v)
	}
}

func TestSelfTimeBySubtraction(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a: 10..50 is covered once
		{Name: "c", Parent: 0, Start: 60, End: 70},
		{Name: "a1", Parent: 1, Start: 12, End: 20},
		{Name: "late", Parent: 0, Start: 95, End: 120}, // clipped to the parent's end
	}
	want := []time.Duration{100 - 40 - 10 - 5, 20 - 8, 30, 10, 8, 25}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	// Three nested rungs over three queries of very different cost, one
	// call failed (-1): the paired differences recover self times of 3
	// and 2 where a difference of medians (105 - 502) finds nonsense.
	got := ladderSelf([][]float64{{10, 105, 1000}, {7, -1, 997}, {5, 100, 995}})
	if got[0] != 3 || got[1] != 2 || got[2] != 100 {
		t.Errorf("ladderSelf = %v, want [3 2 100]", got)
	}
	// Even calls traced at 10 % over the next rung's cost for the same
	// query, odd calls untraced at 0 %, whatever the queries cost.
	if r := tracingOverhead([]float64{11, 200, 1.1, 50, -1}, []float64{10, 200, 1, 50, 7}); math.Abs(r-1.1) > 1e-9 {
		t.Errorf("tracingOverhead = %g, want 1.1", r)
	}
}

// TestGuardFailsWrongAnswers feeds the guard a wrong fingerprint, an
// unconverged answer and a non-empty result on a workload declared
// empty: each must be a failed operation, and the honest answers none.
func TestGuardFailsWrongAnswers(t *testing.T) {
	s, err := specByName("ott_small")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := s.catalog(true)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	honest := func(src string) (string, bool, error) {
		q, err := sess.Parse(src)
		if err != nil {
			return "", false, err
		}
		res, err := sess.Reoptimize(context.Background(), q)
		if err != nil {
			return "", false, err
		}
		return res.Final.Fingerprint(), res.Converged, nil
	}
	sqls := s.singles(qualitySeed, 3)
	if q := guard(cat, true, sqls, honest); len(q.failures) != 0 || q.checked != 3 || q.workRatio() <= 0 {
		t.Fatalf("honest answers: checked %d, ratio %g, failures %v", q.checked, q.workRatio(), q.failures)
	}
	wrongPlan := func(src string) (string, bool, error) {
		_, conv, err := honest(src)
		return "not-the-plan", conv, err
	}
	if q := guard(cat, true, sqls, wrongPlan); len(q.failures) != 3 {
		t.Errorf("wrong fingerprint: %d failures, want 3", len(q.failures))
	}
	unconverged := func(src string) (string, bool, error) {
		fp, _, err := honest(src)
		return fp, false, err
	}
	if q := guard(cat, true, sqls, unconverged); len(q.failures) != 3 {
		t.Errorf("unconverged answers: %d failures, want 3", len(q.failures))
	}
	nonEmpty := []string{"SELECT COUNT(*) FROM r1 AS t1, r2 AS t2 WHERE t1.a = 0 AND t2.a = 0 AND t1.b = t2.b"}
	if q := guard(cat, true, nonEmpty, honest); len(q.failures) != 1 {
		t.Errorf("non-empty count on an empty workload: %d failures, want 1", len(q.failures))
	}
	if q := guard(cat, false, nonEmpty, honest); len(q.failures) != 0 {
		t.Errorf("the same query where emptiness is not promised: %v", q.failures)
	}
}

// TestSmoke runs every workload in both modes on shrunken databases and
// holds the output to BENCHMARK.json: every metric it names — and, in
// the result line, no other — is printed once, with its unit, and
// nothing fails.
func TestSmoke(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(specs()) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(m.Workloads), len(specs()))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, w := range m.Workloads {
		s, err := specByName(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			metrics []boundedMetric
			run     func() (*report, error)
		}{
			{m.EndToEnd, func() (*report, error) { return runE2E(s, 1, time.Second, true) }},
			{m.PerLayer, func() (*report, error) { return runTrace(s, 1, time.Second, true, "") }},
		} {
			rep, err := mode.run()
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if rep.failed != 0 || !rep.correct || rep.attempted < 1 {
				t.Errorf("%s: %d of %d operations failed, correct=%v: %v", s.name, rep.failed, rep.attempted, rep.correct, rep.notes)
			}
			var out bytes.Buffer
			rep.print(&out)
			delete(rep.metrics, "failed_share") // printed, but not in the result line
			if len(rep.metrics) != len(mode.metrics) {
				t.Errorf("%s: %d metrics in the result line, BENCHMARK.json names %d", s.name, len(rep.metrics), len(mode.metrics))
			}
			for _, bm := range mode.metrics {
				if !name.MatchString(bm.Name) {
					t.Errorf("metric name %q", bm.Name)
				}
				prefix := s.name + " " + bm.Name + " "
				lines := 0
				for _, line := range strings.Split(out.String(), "\n") {
					if strings.HasPrefix(line, prefix) {
						lines++
						if !strings.HasSuffix(line, " "+bm.Unit) {
							t.Errorf("%q: want unit %s", line, bm.Unit)
						}
					}
				}
				if lines != 1 {
					t.Errorf("%s: %s printed %d times", s.name, bm.Name, lines)
				}
			}
		}
	}
}
