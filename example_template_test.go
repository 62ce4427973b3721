package reopt_test

// Example for template sharing: parametrized traffic — one template,
// many constants — validated with shared scans, byte-identical to solo.

import (
	"context"
	"fmt"

	"reopt"
)

// WithTemplateSharing targets the dominant production shape: a few
// query templates instantiated with many constants. The session's cache
// indexes sample scans by template, so a narrower constant refines a
// cached wider one's rows instead of rescanning the sample.
// Estimates and final plans are byte-identical to the unshared path;
// only the work to compute them shrinks.
func ExampleWithTemplateSharing() {
	ctx := context.Background()
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 1, RowsPerValue: 10})
	if err != nil {
		panic(err)
	}
	// One template, descending constants: r1.a < 40, < 30, < 20, < 10.
	var queries []*reopt.Query
	for _, k := range []int{40, 30, 20, 10} {
		q, err := reopt.Parse(fmt.Sprintf(
			"SELECT COUNT(*) FROM r1, r2, r3 WHERE r1.a < %d AND r2.a = 1 AND r1.b = r2.b AND r2.b = r3.b", k), cat)
		if err != nil {
			panic(err)
		}
		queries = append(queries, q)
	}

	solo, err := reopt.Open(cat)
	if err != nil {
		panic(err)
	}
	shared, err := reopt.Open(cat,
		reopt.WithSharedCache(256), reopt.WithTemplateSharing())
	if err != nil {
		panic(err)
	}

	a, err := solo.ReoptimizeWorkload(ctx, queries, 1)
	if err != nil {
		panic(err)
	}
	b, err := shared.ReoptimizeWorkload(ctx, queries, 1)
	if err != nil {
		panic(err)
	}
	same := true
	for i := range a {
		same = same && a[i].Final.Fingerprint() == b[i].Final.Fingerprint()
	}
	hits, _ := shared.TemplateStats()
	fmt.Println("same final plans:", same)
	fmt.Println("template index reused scans:", hits > 0)
	// Output:
	// same final plans: true
	// template index reused scans: true
}
