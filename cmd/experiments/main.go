// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -id fig10
//	experiments -id all [-csv] [-customers 1500] [-instances 5] [-seed 42]
//	experiments -id fig17 -cache 4096         # share validation counts across queries
//
// Each experiment prints a table whose rows are the series the paper
// plots, with notes under it on how to read them against the paper; the
// measured values are printed, not recorded in the repository.
//
// -cache N shares a workload-level
// validation cache of N subtree entries across every query of the run,
// so repeated/similar query instances reuse counts; it is off by default
// because the paper's overhead figures measure each query cold.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"reopt/internal/experiments"
)

func main() {
	var (
		id         = flag.String("id", "all", "experiment id (see -list) or 'all'")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		customers  = flag.Int("customers", 0, "TPC-H customer rows (default 1500)")
		rowsPerVal = flag.Int("ott-m", 0, "OTT rows per distinct value (default 40)")
		dsSales    = flag.Int("ds-sales", 0, "TPC-DS store_sales rows (default 30000)")
		instances  = flag.Int("instances", 0, "instances per query template (default 5)")
		cacheSize  = flag.Int("cache", 0, "workload validation-cache budget in subtree entries (0 = off)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none); cancels in-flight work on expiry")
		seed       = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}

	cfg := experiments.Config{
		TPCHCustomers:        *customers,
		OTTRowsPerValue:      *rowsPerVal,
		DSStoreSales:         *dsSales,
		Instances:            *instances,
		WorkloadCacheEntries: *cacheSize,
		Seed:                 *seed,
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	runner := experiments.NewRunner(ctx, cfg)

	var selected []experiments.Experiment
	if *id == "all" {
		selected = experiments.All()
	} else {
		for _, one := range strings.Split(*id, ",") {
			e, err := experiments.ByID(strings.TrimSpace(one))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		start := time.Now()
		tab, err := e.Run(runner)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", tab.ID, tab.Title, tab.CSV())
		} else {
			fmt.Println(tab.Render())
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
