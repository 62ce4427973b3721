// Command servesmoke is the serve-smoke gate (make serve-smoke): it
// exercises a real reoptd process across its whole lifecycle the way
// CI cannot with in-process tests alone — true process boundary, true
// SIGTERM. It starts the daemon against the OTT catalog with a
// one-slot admission quota, waits for readiness, issues a reoptimize,
// sends a parametrized burst (one query shape, several range constants)
// through /v1/workload and asserts every instance is answered, fires an
// over-quota burst and asserts at least one 429 carrying a Retry-After
// hint, then SIGTERMs the process and asserts a clean (exit 0) drain
// within the grace period.
//
// Usage:
//
//	servesmoke -bin ./bin/reoptd [-grace 15s]
//
// Exits 0 on success, 1 with a diagnostic on any failed assertion.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"reopt/reoptclient"
)

// smokeSQL is a 5-way OTT join: a representative multi-join
// re-optimization for the serial step, and the warmup that populates
// the daemon's caches before the bursts.
const smokeSQL = "SELECT COUNT(*) FROM r1, r2, r3, r4, r5 WHERE r1.a = 0 AND r2.a = 0 AND r3.a = 0 AND r4.a = 0 AND r5.a = 1 AND r1.b = r2.b AND r2.b = r3.b AND r3.b = r4.b AND r4.b = r5.b"

// burstSQL is the over-quota burst's payload: a full-range three-way
// join whose validation materializes a multi-million-row join output
// (~tens of milliseconds at -rows 600), with the r3 bound parametrized
// so every request is fresh work. The cache cannot absorb it — each
// distinct bound changes the join's signature — so concurrent requests
// dependably overlap on the one-slot gate instead of serializing
// through it.
const burstSQL = "SELECT COUNT(*) FROM r1, r2, r3 WHERE r1.a BETWEEN 1 AND 120 AND r2.a BETWEEN 1 AND 100 AND r3.a BETWEEN 1 AND %d AND r1.b = r2.b AND r2.b = r3.b"

// smokeConfig pins the default tenant to one admission slot with no
// queue, so an over-quota burst must shed: the smoke test's 429 is a
// designed outcome, not a load accident.
const smokeConfig = `{
  "drain_grace": "15s",
  "default": {
    "max_in_flight": 1,
    "queue_depth": 0,
    "cache_entries": -1,
    "scheduler": true
  }
}`

// paramSQL is the parametrized shape of production traffic: one query
// shape instantiated with many constants, whose instances share the
// validation of their unparametrized subtrees through the tenant's
// cache.
const paramSQL = "SELECT COUNT(*) FROM r1, r2, r3 WHERE r1.a < %d AND r2.a = 1 AND r1.b = r2.b AND r2.b = r3.b"

// paramConstants instantiates paramSQL (r1's domain is 120 at the
// generator defaults reoptd -db ott uses).
var paramConstants = []int{60, 45, 30, 20, 12, 6}

func main() {
	bin := flag.String("bin", "", "path to the reoptd binary (required)")
	grace := flag.Duration("grace", 15*time.Second, "max time the daemon may take to drain after SIGTERM")
	flag.Parse()
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "servesmoke: -bin is required")
		os.Exit(1)
	}
	if err := run(*bin, *grace); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: PASS")
}

func run(bin string, grace time.Duration) error {
	// A pre-reserved port keeps the daemon's address knowable without
	// parsing its logs; the tiny window between Close and the daemon's
	// Listen is safe because nothing else races for ephemeral ports
	// here.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()

	dir, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfgPath := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(cfgPath, []byte(smokeConfig), 0o644); err != nil {
		return err
	}

	// -rows 600 scales the OTT tables 10x over the generator default so
	// every validation does real scan work; the 429 step needs request
	// latencies comfortably above goroutine-scheduling jitter.
	cmd := exec.Command(bin, "-db", "ott", "-rows", "600", "-listen", addr, "-config", cfgPath)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", bin, err)
	}
	// The daemon is killed on any failure path; on success Wait has
	// already reaped it and the extra Kill is a no-op on a dead pid.
	defer cmd.Process.Kill()

	base := "http://" + addr
	c := reoptclient.New(base, reoptclient.WithRetries(0))
	ctx := context.Background()

	// 1. Readiness: the catalog build takes a moment; poll /readyz.
	readyBy := time.Now().Add(60 * time.Second)
	for {
		if err := c.Ready(ctx); err == nil {
			break
		}
		if time.Now().After(readyBy) {
			return fmt.Errorf("daemon never became ready at %s", base)
		}
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Println("servesmoke: ready")

	// 2. One serial reoptimize must answer 200 with a plan: serial
	// traffic is never shed at any admission setting.
	res, err := c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: smokeSQL})
	if err != nil {
		return fmt.Errorf("reoptimize: %w", err)
	}
	if res.Fingerprint == "" || res.Explain == "" {
		return fmt.Errorf("reoptimize returned an empty plan: %+v", res)
	}
	fmt.Printf("servesmoke: reoptimized (%d rounds, converged=%v)\n", res.Rounds, res.Converged)

	// 3. Parametrized burst: one /v1/workload call carrying the same
	// query shape with varying constants — the quota's one admission
	// slot covers the whole call, so every instance must come back
	// answered (a Result with a plan, never an Error slot).
	wreq := &reoptclient.WorkloadRequest{Parallelism: 1}
	for _, k := range paramConstants {
		wreq.SQL = append(wreq.SQL, fmt.Sprintf(paramSQL, k))
	}
	wres, err := c.Workload(ctx, wreq)
	if err != nil {
		return fmt.Errorf("parametrized workload: %w", err)
	}
	if len(wres.Items) != len(wreq.SQL) {
		return fmt.Errorf("parametrized workload: %d items for %d queries", len(wres.Items), len(wreq.SQL))
	}
	for i, item := range wres.Items {
		if item.Error != nil {
			return fmt.Errorf("parametrized workload: instance %d (constant %d) failed: %s: %s",
				i, paramConstants[i], item.Error.Kind, item.Error.Message)
		}
		if item.Result == nil || item.Result.Fingerprint == "" {
			return fmt.Errorf("parametrized workload: instance %d (constant %d) returned no plan",
				i, paramConstants[i])
		}
	}
	fmt.Printf("servesmoke: parametrized burst answered %d/%d instances\n",
		len(wres.Items), len(wreq.SQL))

	// 4. Over-quota burst: with one slot and no queue, concurrent
	// requests must shed with 429 + Retry-After. Every request carries
	// a distinct range bound (see burstSQL) so no cache layer can
	// answer it instantly, and a start barrier releases the volley
	// together so arrival stagger stays far below request latency; the
	// burst still retries in case a volley serializes by accident.
	shed := 0
	for attempt := 0; attempt < 5 && shed == 0; attempt++ {
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			start = make(chan struct{})
		)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(bound int) {
				defer wg.Done()
				sql := fmt.Sprintf(burstSQL, bound)
				<-start
				_, err := c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql})
				if reoptclient.IsOverloaded(err) {
					ae, _ := err.(*reoptclient.APIError)
					mu.Lock()
					defer mu.Unlock()
					if ae.RetryAfter <= 0 {
						fmt.Fprintln(os.Stderr, "servesmoke: 429 without a Retry-After hint")
						return
					}
					shed++
				}
			}(80 - (attempt*8 + i))
		}
		close(start)
		wg.Wait()
	}
	if shed == 0 {
		return fmt.Errorf("over-quota burst produced no 429 with Retry-After")
	}
	fmt.Printf("servesmoke: burst shed %d request(s) with 429 + Retry-After\n", shed)

	// 5. SIGTERM: the daemon must flip readiness, drain, and exit 0
	// within the grace period.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon did not drain cleanly: %w", err)
		}
	case <-time.After(grace + 10*time.Second):
		return fmt.Errorf("daemon still running %v after SIGTERM", grace+10*time.Second)
	}
	fmt.Println("servesmoke: clean drain after SIGTERM")
	return nil
}
