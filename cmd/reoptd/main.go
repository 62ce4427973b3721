// Command reoptd is the re-optimization daemon: a long-lived HTTP
// server exposing the sampling-based re-optimization pipeline
// (/v1/reoptimize, /v1/validate, /v1/workload) over per-tenant
// reopt.Sessions, each bounded by its own admission gate, memory
// budget and cache quota so tenants cannot starve or corrupt each
// other. See DESIGN.md §7 for the serving contract and the status-code
// mapping, and package reopt/reoptclient for the wire types and a
// retrying Go client.
//
// Usage:
//
//	reoptd -db ott                          # defaults: one bounded tenant on :8372
//	reoptd -config tenants.json             # per-tenant quotas from a file
//	reoptd -listen 127.0.0.1:9000 -grace 5s # override listen addr and drain grace
//
// Lifecycle: on SIGTERM (or SIGINT) the daemon drains gracefully —
// /readyz flips to 503 first, in-flight requests finish and are
// answered, queued requests are rejected 503 — and exits 0 once idle,
// or non-zero if the grace period expires. A second signal forces
// immediate exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"reopt"
	"reopt/internal/server"
	"reopt/reoptclient"
)

func main() {
	var (
		listen  = flag.String("listen", "", "listen address (overrides config; default :8372)")
		cfgPath = flag.String("config", "", "JSON config file with per-tenant quotas (empty = one default tenant)")
		db      = flag.String("db", "ott", "database to build and serve: ott, tpch, or tpcds")
		z       = flag.Float64("z", 0, "TPC-H skew (0 uniform, 1 skewed)")
		seed    = flag.Int64("seed", 42, "random seed for the generated database")
		rows    = flag.Int("rows", 0, "rows-per-value scale for -db ott (0 = generator default)")
		grace   = flag.Duration("grace", 0, "drain grace period on SIGTERM (overrides config)")
	)
	flag.Parse()
	if err := run(*listen, *cfgPath, *db, *z, *seed, *rows, *grace); err != nil {
		fmt.Fprintln(os.Stderr, "reoptd:", err)
		os.Exit(1)
	}
}

func run(listen, cfgPath, db string, z float64, seed int64, rows int, grace time.Duration) error {
	logger := log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)

	cfg := server.DefaultConfig()
	if cfgPath != "" {
		var err error
		cfg, err = server.LoadConfig(cfgPath)
		if err != nil {
			return err
		}
	}
	if listen != "" {
		cfg.Listen = listen
	}
	if grace > 0 {
		cfg.DrainGrace = reoptclient.Duration(grace)
	}

	logger.Printf("building %s catalog (seed=%d)...", db, seed)
	var cat *reopt.Catalog
	var err error
	switch db {
	case "ott":
		cat, err = reopt.GenerateOTT(reopt.OTTConfig{Seed: seed, RowsPerValue: rows})
	case "tpch":
		cat, err = reopt.GenerateTPCH(reopt.TPCHConfig{Z: z, Seed: seed})
	case "tpcds":
		cat, err = reopt.GenerateTPCDS(reopt.TPCDSConfig{Seed: seed})
	default:
		return fmt.Errorf("unknown database %q", db)
	}
	if err != nil {
		return err
	}

	srv, err := server.New(cat, cfg, server.WithLogf(logger.Printf))
	if err != nil {
		return err
	}

	// Serve and drain race through these channels: serveErr delivers
	// the listener's verdict, sigs the operator's.
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-serveErr:
		return err // listener failed before any signal
	case sig := <-sigs:
		logger.Printf("reoptd: %v: draining (grace %v; signal again to force exit)",
			sig, time.Duration(cfg.DrainGrace))
	}

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.DrainGrace))
		defer cancel()
		drainDone <- srv.Drain(ctx)
	}()
	select {
	case err := <-drainDone:
		if err != nil {
			return err
		}
		return nil // clean drain: exit 0
	case sig := <-sigs:
		srv.Close()
		return fmt.Errorf("%v during drain: forced exit", sig)
	}
}
