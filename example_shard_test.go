package reopt_test

// Example for sample sharding: validation over shard-partitioned
// samples is byte-identical to the monolithic layout.

import (
	"context"
	"fmt"

	"reopt"
)

// WithSampleShards splits each table's sample into contiguous shards
// that a validation's scans evaluate one after another. The shards'
// selections concatenate in shard order into the monolithic one, so
// estimates and the final plan are byte-identical at every shard count.
func ExampleWithSampleShards() {
	ctx := context.Background()
	mono, q := exampleSession(reopt.WithSampleShards(1))
	sharded, _ := exampleSession(reopt.WithSampleShards(4))

	a, err := mono.Reoptimize(ctx, q)
	if err != nil {
		panic(err)
	}
	b, err := sharded.Reoptimize(ctx, q)
	if err != nil {
		panic(err)
	}
	fmt.Println("same final plan:", a.Final.Fingerprint() == b.Final.Fingerprint())
	fmt.Println("same validated stats:", a.Gamma.Snapshot() == b.Gamma.Snapshot())
	// Output:
	// same final plan: true
	// same validated stats: true
}
