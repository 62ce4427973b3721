package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifest is the part of BENCHMARK.json the A/A check reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict judges two sets of runs of one build against a bound: a
// spread wider than the bound cannot resolve a change of that size, and
// two sets of the same code that differ by more than it show the bound
// is tighter than the box is steady.
func verdict(a, b []float64, m boundedMetric) (medA, medB, spread float64, v string) {
	medA, medB = median(a), median(b)
	spread = max(quartileSpread(a), quartileSpread(b))
	switch {
	case spread > m.Bound:
		v = "UNRESOLVED"
	case worsening(medA, medB, m.Better) > m.Bound || worsening(medB, medA, m.Better) > m.Bound:
		v = "FAIL"
	default:
		v = "PASS"
	}
	return medA, medB, spread, v
}

// runAA runs N pairs of end-to-end sets of this one build, alternating
// which side of a pair goes first and which of two seeds a pair uses,
// and prints for every workload and end-to-end metric both medians,
// the quartile spread and the verdict against BENCHMARK.json's bound.
func runAA(o *options) error {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa reads the bounds from the repository root: %w", err)
	}
	var names []string
	for _, s := range specs() {
		if o.workload == "" || o.workload == s.name {
			names = append(names, s.name)
		}
	}
	type key struct{ workload, metric string }
	sides := [2]map[key][]float64{{}, {}}
	for pair := 0; pair < o.aa; pair++ {
		seed := o.seed + int64(pair%2)
		for turn := 0; turn < 2; turn++ {
			side := (pair + turn) % 2
			for _, w := range names {
				res, err := child(o, w, seed, io.Discard)
				if err != nil {
					return err
				}
				if res.Failed > 0 || !res.Correct {
					return fmt.Errorf("%s: %d of %d operations failed", w, res.Failed, res.Attempted)
				}
				for _, em := range m.EndToEnd {
					v, ok := res.Metrics[em.Name]
					if !ok {
						return fmt.Errorf("%s: no %s in the result line", w, em.Name)
					}
					k := key{w, em.Name}
					sides[side][k] = append(sides[side][k], v.Value)
				}
				fmt.Fprintf(os.Stderr, "pair %d side %c seed %d %s done\n", pair+1, 'A'+side, seed, w)
			}
		}
	}
	fmt.Printf("%-14s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "spread", "bound", "verdict")
	unresolved := 0
	for _, w := range names {
		for _, em := range m.EndToEnd {
			k := key{w, em.Name}
			medA, medB, spread, v := verdict(sides[0][k], sides[1][k], em)
			if v != "PASS" {
				unresolved++
			}
			fmt.Printf("%-14s %-18s %12.5g %12.5g %8.4f %6.3f  %s\n", w, em.Name, medA, medB, spread, em.Bound, v)
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%d metric x workload pairs did not pass A/A: lengthen the timed phase before widening a bound", unresolved)
	}
	return nil
}
