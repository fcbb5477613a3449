// Command evalgen regenerates the paper's evaluation (§4): Table 2 (code
// generation rate and time) and Figure 5 (resource usage), over the eight
// benchmark programs × N semantics-preserving mutations each.
//
// Usage:
//
//	evalgen [-mutants 10] [-seed 42] [-timeout 2m] [-programs rcp,flowlet]
//	        [-table2] [-figure5] [-csv out.csv] [-stats] [-trace-dir traces/]
//
// With no selection flags both tables print. The run is deterministic per
// seed; compilations parallelize across cores.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/solcache"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "evalgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		mutants   = flag.Int("mutants", 10, "mutations per program (the paper uses 10)")
		seed      = flag.Int64("seed", 42, "mutation and CEGIS seed")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-mutant Chipmunk compile timeout")
		parallel  = flag.Int("parallel", 0, "concurrent compilations (0 = GOMAXPROCS)")
		intraPar  = flag.Int("intra-parallel", 1, "portfolio parallelism inside each compilation (1 = sequential)")
		fanout    = flag.Int("seed-fanout", 1, "diversified CEGIS seeds raced per stage depth in portfolio mode")
		progs     = flag.String("programs", "", "comma-separated subset of the corpus (default: all 8)")
		table2    = flag.Bool("table2", false, "print Table 2 only")
		figure5   = flag.Bool("figure5", false, "print Figure 5 only")
		csvPath   = flag.String("csv", "", "also write raw per-mutant outcomes as CSV")
		traceDir  = flag.String("trace-dir", "", "write one JSONL span trace per mutant compilation into this directory")
		stats     = flag.Bool("stats", false, "print aggregate solver metrics after the run")
		cachePath = flag.String("cache-path", "", "persist the solution cache to this JSON file; repeat sweeps skip already-solved mutants")
		withBPF   = flag.Bool("bpf", false, "also compile each mutant for the bpf register-machine target (hand-worked slot budgets) and add per-target columns")
		explain   = flag.Bool("explain", false, "run infeasibility forensics on infeasible mutants and record the binding dimension in the CSV infeasibility columns")
	)
	flag.Parse()

	opts := eval.Options{
		Mutants:          *mutants,
		Seed:             *seed,
		Timeout:          *timeout,
		Parallel:         *parallel,
		IntraParallelism: *intraPar,
		SeedFanout:       *fanout,
		BPF:              *withBPF,
		Explain:          *explain,
	}
	if *progs != "" {
		opts.Programs = strings.Split(*progs, ",")
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
		opts.TraceDir = *traceDir
	}
	var reg *obs.Registry
	if *stats {
		reg = obs.NewRegistry()
		opts.Metrics = reg
	}
	var cache *solcache.Cache
	if *cachePath != "" {
		cache = solcache.New(0, solcache.WithPersistPath(*cachePath))
		opts.Cache = cache
	}

	start := time.Now()
	outcomes, err := eval.Run(context.Background(), opts)
	if err != nil {
		return err
	}
	if cache != nil {
		if serr := cache.Save(); serr != nil {
			return fmt.Errorf("saving cache: %w", serr)
		}
		st := cache.Stats()
		fmt.Printf("solution cache: %d entries, %d hits, %d misses, %d shared\n",
			st.Size, st.Hits, st.Misses, st.Shared)
	}

	both := !*table2 && !*figure5
	if *table2 || both {
		fmt.Println("=== Table 2: code generation rate and time ===")
		fmt.Println(eval.RenderTable2(eval.Table2(outcomes)))
	}
	if *figure5 || both {
		fmt.Println("=== Figure 5: resources used by Chipmunk, Domino ===")
		fmt.Println(eval.RenderFigure5(eval.Figure5(outcomes)))
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(eval.CSV(outcomes)), 0o644); err != nil {
			return err
		}
		fmt.Printf("raw outcomes written to %s\n", *csvPath)
	}
	if *stats {
		fmt.Println("=== solver metrics (all compilations) ===")
		fmt.Print(reg.String())
	}
	if *traceDir != "" {
		fmt.Printf("span traces written to %s\n", *traceDir)
	}
	fmt.Printf("total wall clock: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
