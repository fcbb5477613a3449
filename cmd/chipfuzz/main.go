// Command chipfuzz runs randomized differential-testing campaigns over the
// Chipmunk toolchain (internal/difftest).
//
// Every iteration it differentially tests the CDCL solver against naive
// reference solvers on a random CNF, round-trips the CNF through DIMACS,
// compiles a random Domino program end-to-end, re-validates feasible
// results against the reference interpreter (brute force, independent of
// the SAT/CEGIS machinery), spot-checks infeasible claims by sampling hole
// assignments, audits infeasibility forensics on a subsample of infeasible
// verdicts (the blamed UNSAT core must be jointly unsatisfiable and
// minimal under re-solve), and periodically cross-checks
// semantics-preserving mutants.
//
// Usage:
//
//	chipfuzz -iters 500 -seed 1
//	chipfuzz -duration 10m -p 4 -out failures.jsonl
//
// Discrepancies are minimized where possible and written one JSON object
// per line to -out (default stderr); each record carries a standalone
// reproducer program. Exit status is 1 when any discrepancy was found.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/difftest"
	"repro/internal/perfhist"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chipfuzz:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		iters       = flag.Int("iters", 500, "number of campaign iterations")
		seed        = flag.Int64("seed", 1, "base seed; iteration i is fully determined by seed+i")
		duration    = flag.Duration("duration", 0, "optional wall-clock budget (stops at whichever of -iters/-duration hits first)")
		parallel    = flag.Int("p", runtime.GOMAXPROCS(0), "worker parallelism")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-compile timeout")
		out         = flag.String("out", "", "write failure artifacts (JSONL) to this file instead of stderr")
		mutantsEach = flag.Int("mutants-every", 8, "run the metamorphic oracle every n-th iteration (0 disables)")
		unsatSamp   = flag.Int("unsat-samples", 64, "random hole assignments sampled per infeasible verdict")
		explainEach = flag.Int("explain-every", 4, "audit infeasibility forensics (blame-set minimality under re-solve) on every n-th iteration's infeasible verdict (0 disables)")
		bpfEach     = flag.Int("bpf-every", 0, "also compile every n-th iteration for the bpf register-machine target and oracle-check it (0 disables; meant for the nightly run)")
		verbose     = flag.Bool("v", false, "log per-failure details and the final summary")
		perfHistory = flag.String("perf-history", os.Getenv(perfhist.EnvVar),
			"append campaign effort (iterations/sec, per-oracle time split) to this JSONL performance history")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}

	var artifacts io.Writer = os.Stderr
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		artifacts = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := difftest.CampaignOptions{
		Iters:          *iters,
		Duration:       *duration,
		Seed:           *seed,
		Parallelism:    *parallel,
		CompileTimeout: *timeout,
		MutantsEvery:   *mutantsEach,
		UnsatSamples:   *unsatSamp,
		ExplainEvery:   *explainEach,
		BPFEvery:       *bpfEach,
		Artifacts:      artifacts,
	}
	if *mutantsEach == 0 {
		opts.MutantsEvery = -1
	}
	if *explainEach == 0 {
		opts.ExplainEvery = -1
	}
	if *verbose {
		opts.Log = os.Stderr
	}

	start := time.Now()
	sum, failures, err := difftest.Run(ctx, opts)
	if err != nil {
		return err
	}
	fmt.Printf("chipfuzz: %d iters in %s: %d compiles (%d feasible, %d infeasible, %d timed out), %d solver checks, %d mutants, %d unsat probes, %d bpf compiles (%d feasible) — %d failure(s)\n",
		sum.Iters, time.Since(start).Round(time.Millisecond),
		sum.Compiles, sum.Feasible, sum.Infeasible, sum.TimedOut,
		sum.SolverChecks, sum.Mutants, sum.UnsatProbes,
		sum.BPFCompiles, sum.BPFFeasible, sum.Failures)
	if *perfHistory != "" {
		hist, err := perfhist.Open(*perfHistory, "chipfuzz")
		if err != nil {
			return fmt.Errorf("perf history: %w", err)
		}
		if err := hist.AppendSamples("campaign", sum.Samples()); err != nil {
			return fmt.Errorf("perf history: %w", err)
		}
		if err := hist.Close(); err != nil {
			return fmt.Errorf("perf history: %w", err)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d discrepancies found", len(failures))
	}
	return nil
}
