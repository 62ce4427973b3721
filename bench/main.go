// Command bench is the repository's claim-bearing benchmark: it serves
// internal/server on a loopback listener inside this process, drives it
// through reoptclient with seeded SQL traffic, and prints end-to-end
// metrics (tracing off) or per-layer metrics (a traced ladder that times
// calls into each layer's public functions from outside). README.md
// in this directory says what each workload and metric is for.
//
//	go run ./bench --workload ott_small --seed 1 --seconds 20 --trace 0
//	go run ./bench -all -mode trace -seed 1 -out metrics.json -trace-out spans.json
//	go run ./bench -aa 5          # A/A: do two sets of runs agree within the bounds?
//	go run ./bench -smoke -all    # 2 s per workload on shrunken databases
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"time"
)

func main() {
	// One processor. The reference box's two vCPUs are not reliably
	// parallel — two spinning goroutines take one or two times as long
	// as one, depending on the minute — so whatever a run does on a
	// second core comes back as a 10-15 % run-to-run spread. Pinned, the
	// end-to-end numbers are CPU work per query and repeat within 2-3 %.
	// The traced run raises the limit for the rungs that compare parallel
	// settings and reports how parallel the cores were at that moment.
	runtime.GOMAXPROCS(1)
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	all      bool
	seed     int64
	duration time.Duration
	trace    bool
	smoke    bool
	aa       int
	out      string
	traceOut string
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	o := &options{}
	var seconds float64
	var traceN int
	var mode string
	fs.StringVar(&o.workload, "workload", "", "workload to run (one per process)")
	fs.BoolVar(&o.all, "all", false, "run every workload, each in its own child process")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated SQL sequence (database seeds are fixed)")
	fs.Float64Var(&seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.DurationVar(&o.duration, "duration", 0, "length of the timed phase (overrides -seconds)")
	fs.IntVar(&traceN, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced ladder")
	fs.StringVar(&mode, "mode", "", "e2e or trace (same as -trace 0/1)")
	fs.BoolVar(&o.smoke, "smoke", false, "2 s per workload on shrunken databases")
	fs.IntVar(&o.aa, "aa", 0, "run N alternating pairs of end-to-end sets on this build and compare them")
	fs.StringVar(&o.out, "out", "", "also write the metrics as JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the spans of a traced run to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch mode {
	case "":
		o.trace = traceN != 0
	case "e2e":
	case "trace":
		o.trace = true
	default:
		return nil, fmt.Errorf("-mode must be e2e or trace, not %q", mode)
	}
	if o.duration == 0 {
		o.duration = time.Duration(seconds * float64(time.Second))
	}
	if o.smoke {
		o.duration = 2 * time.Second
	}
	if o.duration <= 0 {
		return nil, fmt.Errorf("the timed phase must be longer than 0")
	}
	return o, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	switch {
	case o.aa > 0:
		return runAA(o)
	case o.all:
		return runAll(o)
	case o.workload == "":
		return fmt.Errorf("name a workload with -workload, or pass -all")
	}
	s, err := specByName(o.workload)
	if err != nil {
		return err
	}
	var rep *report
	if o.trace {
		rep, err = runTrace(s, o.seed, o.duration, o.smoke, o.traceOut)
	} else {
		rep, err = runE2E(s, o.seed, o.duration, o.smoke)
	}
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	if o.out != "" {
		if err := writeJSON(o.out, map[string]map[string]metric{rep.workload: rep.metrics}); err != nil {
			return err
		}
	}
	return rep.printResult(os.Stdout)
}

// metricNames returns the report's metric names in sorted order: map
// iteration must not decide what a diff of two runs looks like.
func (r *report) metricNames() []string {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// print writes one `workload metric value unit` line per metric.
func (r *report) print(w io.Writer) {
	for _, n := range r.metricNames() {
		m := r.metrics[n]
		fmt.Fprintf(w, "%s %s %v %s\n", r.workload, n, m.Value, m.Unit)
	}
	for _, note := range r.notes {
		fmt.Fprintf(w, "# %s %s\n", r.workload, note)
	}
}

// result is the last line of standard output, the shape the driver of
// BENCHMARK.json reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult prints the driver's line. failed_share is left out of it:
// it is 0 on every healthy run, which a bounded metric may not be, and
// the line's own attempted and failed carry the same information.
func (r *report) printResult(w io.Writer) error {
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for n, m := range r.metrics {
		if n != "failed_share" {
			res.Metrics[n] = m
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// child runs one workload in a process of its own — fresh caches and a
// peak_rss_mb that belongs to that workload alone — and returns the
// result line it printed.
func child(o *options, workload string, seed int64, echo io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-duration", o.duration.String()}
	if o.trace {
		args = append(args, "-trace", "1")
		if o.traceOut != "" {
			args = append(args, "-trace-out", workload+"."+o.traceOut)
		}
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.Stdout = io.MultiWriter(&stdout, echo)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return &res, nil
}

// runAll runs every workload in turn and merges what they reported.
func runAll(o *options) error {
	all := map[string]map[string]metric{}
	for _, s := range specs() {
		res, err := child(o, s.name, o.seed, os.Stdout)
		if err != nil {
			return err
		}
		all[s.name] = res.Metrics
	}
	if o.out != "" {
		return writeJSON(o.out, all)
	}
	return nil
}
