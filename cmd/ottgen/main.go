// Command ottgen materializes the Optimizer Torture Test database (§4)
// as CSV files plus a queries.sql file, so the torture test can be
// loaded into any external database system — the experiment the paper
// runs against PostgreSQL and two commercial systems.
//
// Usage:
//
//	ottgen -out /tmp/ott -tables 6 -m 100 -queries 30 -n 6
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"reopt/internal/workload/ott"
)

func main() {
	var (
		out     = flag.String("out", "ott-data", "output directory")
		tables  = flag.Int("tables", 6, "number of relations")
		m       = flag.Int("m", 100, "rows per distinct value (the paper's 100)")
		queries = flag.Int("queries", 30, "query instances to emit")
		n       = flag.Int("n", 6, "tables per query")
		same    = flag.Int("same", 4, "selections sharing the majority constant (the paper's m=4)")
		seed    = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()
	if err := run(*out, *tables, *m, *queries, *n, *same, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "ottgen:", err)
		os.Exit(1)
	}
}

func run(out string, tables, m, queries, n, same int, seed int64) error {
	if same >= n {
		// A query needs at least one minority constant to be empty.
		same = n - 1
	}
	cat, err := ott.Generate(ott.Config{NumTables: tables, RowsPerValue: m, Seed: seed})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for k := 1; k <= tables; k++ {
		name := ott.TableName(k)
		t, err := cat.Table(name)
		if err != nil {
			return err
		}
		path := filepath.Join(out, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		fmt.Fprintln(w, "a,b")
		a, b := t.ColData().Col(0), t.ColData().Col(1)
		for i := range t.NumRows() {
			fmt.Fprintf(w, "%d,%d\n", a.Value(i).AsInt(), b.Value(i).AsInt())
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d rows)\n", path, t.NumRows())
	}

	qs, err := ott.Queries(cat, ott.QueryConfig{
		NumTables: n, SameConstant: same, Count: queries, Seed: seed,
	})
	if err != nil {
		return err
	}
	qpath := filepath.Join(out, "queries.sql")
	f, err := os.Create(qpath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, q := range qs {
		fmt.Fprintf(w, "%s;\n", q)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d queries)\n", qpath, len(qs))
	return nil
}
