package main

import (
	"strings"
	"testing"
)

func rep(benches ...Benchmark) *Report {
	return &Report{SHA: "test", Benchmarks: benches}
}

// TestCompareVerdicts: regressions beyond the threshold fail, dropped
// benchmarks fail, improvements and new benchmarks pass.
func TestCompareVerdicts(t *testing.T) {
	base := rep(
		Benchmark{Pkg: "p", Name: "BenchmarkStable", NsPerOp: 1000},
		Benchmark{Pkg: "p", Name: "BenchmarkFaster", NsPerOp: 1000},
		Benchmark{Pkg: "p", Name: "BenchmarkWithinBudget", NsPerOp: 1000},
	)
	fresh := rep(
		Benchmark{Pkg: "p", Name: "BenchmarkStable", NsPerOp: 1001},
		Benchmark{Pkg: "p", Name: "BenchmarkFaster", NsPerOp: 400},
		Benchmark{Pkg: "p", Name: "BenchmarkWithinBudget", NsPerOp: 1240},
		Benchmark{Pkg: "p", Name: "BenchmarkBrandNew", NsPerOp: 99},
	)
	var out strings.Builder
	if !compare(&out, base, fresh, 25) {
		t.Fatalf("in-budget diff failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "new  BenchmarkBrandNew") {
		t.Errorf("new benchmark not reported:\n%s", out.String())
	}

	// A >25%% ns/op regression fails.
	fresh.Benchmarks[2].NsPerOp = 1300
	out.Reset()
	if compare(&out, base, fresh, 25) {
		t.Fatalf("30%% regression passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkWithinBudget") {
		t.Errorf("regressed benchmark not flagged:\n%s", out.String())
	}

	// A benchmark silently dropped from the series fails.
	fresh.Benchmarks[2].NsPerOp = 1000
	fresh.Benchmarks = fresh.Benchmarks[1:]
	out.Reset()
	if compare(&out, base, fresh, 25) {
		t.Fatalf("dropped benchmark passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "dropped from the series") {
		t.Errorf("dropped benchmark not flagged:\n%s", out.String())
	}
}

// TestCompareKeysByPackage: identically named benchmarks in different
// packages are distinct series.
func TestCompareKeysByPackage(t *testing.T) {
	base := rep(Benchmark{Pkg: "a", Name: "BenchmarkX", NsPerOp: 100})
	fresh := rep(Benchmark{Pkg: "b", Name: "BenchmarkX", NsPerOp: 100})
	var out strings.Builder
	if compare(&out, base, fresh, 25) {
		t.Fatalf("package move read as green:\n%s", out.String())
	}
}

// TestParseTrimsProcs: the -N GOMAXPROCS suffix must not leak into
// series names, or baselines would break across runner shapes.
func TestParseTrimsProcs(t *testing.T) {
	in := strings.NewReader(`
pkg: reopt
BenchmarkWorkloadScheduler/sched=on/parallel=2-8   	      20	  13190650 ns/op	         1.505 req/wave	 7701053 B/op	   42809 allocs/op
`)
	rep, err := parse(in, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkWorkloadScheduler/sched=on/parallel=2" {
		t.Errorf("name = %q", b.Name)
	}
	if b.NsPerOp != 13190650 || b.AllocsPerOp != 42809 || b.BytesPerOp != 7701053 {
		t.Errorf("values = %+v", b)
	}
	if len(b.Extra) != 1 || b.Extra["req/wave"] != 1.505 {
		t.Errorf("extra metrics = %v, want req/wave 1.505 alone", b.Extra)
	}
}
