package server_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"reopt"
	"reopt/internal/faultinject"
	"reopt/internal/server"
	"reopt/reoptclient"
)

// ottCatalog builds the shared OTT catalog: small enough that a
// re-optimization answers in milliseconds, rich enough that 3- and
// 4-table queries produce multi-round traces.
func ottCatalog(t testing.TB) *reopt.Catalog {
	t.Helper()
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 5, RowsPerValue: 15})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// ottQueries generates one tenant's workload and renders it to SQL
// text (the wire format); the parsed forms ride along for tag hunting.
func ottQueries(t testing.TB, cat *reopt.Catalog, tables, count int, seed int64) ([]string, []*reopt.Query) {
	t.Helper()
	qs, err := reopt.OTTQueries(cat, reopt.OTTQueryConfig{
		NumTables: tables, SameConstant: tables - 1, Count: count, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	sql := make([]string, len(qs))
	for i, q := range qs {
		sql[i] = q.String()
	}
	return sql, qs
}

// crossUniqueTag finds a selection predicate of some query in mine that
// appears in no query of theirs — an injection tag that provably
// detonates only my tenant's validation work. Substring containment is
// checked because injection rules match tags by substring.
func crossUniqueTag(t testing.TB, mine, theirs []*reopt.Query) string {
	t.Helper()
	for _, q := range mine {
		for _, sel := range q.Selections {
			tag := sel.String()
			unique := true
			for _, oq := range theirs {
				for _, os := range oq.Selections {
					if strings.Contains(os.String(), tag) || strings.Contains(tag, os.String()) {
						unique = false
						break
					}
				}
				if !unique {
					break
				}
			}
			if unique {
				return tag
			}
		}
	}
	t.Fatal("no selection unique across the tenants; workload seeds need adjusting")
	return ""
}

// boundedQuota is the test tenants' envelope: enough concurrency for
// the chaos hammers, the cache on, a generous memory budget, and the
// retired scheduler knob still set, as old config files set it.
func boundedQuota() server.Quota {
	return server.Quota{
		Workers:      2,
		MaxInFlight:  4,
		QueueDepth:   8,
		MemoryBudget: 1 << 50,
		CacheEntries: -1,
		Scheduler:    true,
	}
}

// blockAtEstimate installs a rule that blocks the first validation at
// the estimator seam until gate closes, signalling started once the
// victim call is provably in flight and holding its admission slot.
func blockAtEstimate(fi *faultinject.Set, started, gate chan struct{}) {
	fi.On(faultinject.Rule{Point: faultinject.Estimate, Count: 1, Do: func(faultinject.Point, string) {
		close(started)
		<-gate
	}})
}

// waitNoGoroutineLeak polls until the process is back to at most base
// goroutines, dumping all stacks on timeout.
func waitNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, %d at start\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// respKey reduces a wire response to its observable identity.
func respKey(r *reoptclient.ReoptimizeResponse) string {
	return r.Fingerprint + "|" + r.Explain
}
