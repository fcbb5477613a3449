package difftest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/bpf"
	"repro/internal/core"
)

// CampaignOptions configures a fuzzing campaign.
type CampaignOptions struct {
	// Iters is the number of iterations. 0 means 100. When Duration is
	// also set, the campaign stops at whichever limit hits first.
	Iters int
	// Duration optionally bounds wall-clock time.
	Duration time.Duration
	// Seed makes the campaign reproducible: iteration i derives all its
	// randomness from Seed+i, so a failure can be replayed by rerunning
	// its iteration alone.
	Seed int64
	// Parallelism is the worker count. 0 means 1.
	Parallelism int
	// CompileTimeout bounds each core.Compile call. 0 means 10s.
	CompileTimeout time.Duration
	// MutantsEvery runs the metamorphic oracle every n-th iteration
	// (compiling mutants is the campaign's most expensive stage).
	// 0 means 8.
	MutantsEvery int
	// UnsatSamples is the number of random hole assignments probed per
	// infeasible verdict. 0 means 64.
	UnsatSamples int
	// ExplainEvery audits infeasibility forensics on every n-th
	// iteration's infeasible verdict: the blamed UNSAT core must be
	// jointly unsatisfiable and minimal under re-solve, and the gated
	// rerun must not contradict the ungated verdict. Forensics costs
	// roughly one extra compile attempt plus the minimization probes, so
	// it is subsampled like the metamorphic oracle. 0 means 4; negative
	// disables.
	ExplainEvery int
	// BPFEvery additionally compiles every n-th iteration's scenario for
	// the bpf register-machine target and re-validates a feasible result
	// against the BPF brute-force oracle. 0 disables (register-machine
	// synthesis is the campaign's slowest stage, so it is opt-in and meant
	// for the nightly run). Negative disables explicitly.
	BPFEvery int
	// Gen bounds the program generator.
	Gen GenOptions
	// Artifacts receives one JSON line per failure, if non-nil.
	Artifacts io.Writer
	// Log receives progress lines, if non-nil.
	Log io.Writer
}

func (o CampaignOptions) iters() int {
	if o.Iters == 0 {
		return 100
	}
	return o.Iters
}

func (o CampaignOptions) parallelism() int {
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

func (o CampaignOptions) compileTimeout() time.Duration {
	if o.CompileTimeout == 0 {
		return 10 * time.Second
	}
	return o.CompileTimeout
}

func (o CampaignOptions) mutantsEvery() int {
	if o.MutantsEvery == 0 {
		return 8
	}
	return o.MutantsEvery
}

func (o CampaignOptions) unsatSamples() int {
	if o.UnsatSamples == 0 {
		return 64
	}
	return o.UnsatSamples
}

func (o CampaignOptions) explainEvery() int {
	if o.ExplainEvery == 0 {
		return 4
	}
	return o.ExplainEvery
}

// Failure is one reported discrepancy, serialized as a JSONL artifact.
// Program is a standalone reproducer: the (minimized) Domino source of the
// offending program, re-parseable with internal/parser.
type Failure struct {
	Iter     int    `json:"iter"`
	Seed     int64  `json:"seed"`
	Kind     string `json:"kind"`
	Detail   string `json:"detail"`
	Program  string `json:"program,omitempty"`
	Width    int    `json:"width,omitempty"`
	Stages   int    `json:"max_stages,omitempty"`
	ALU      string `json:"alu,omitempty"`
	Shrunken bool   `json:"shrunken,omitempty"`
}

// Summary aggregates a campaign run.
type Summary struct {
	Iters        int `json:"iters"`
	Compiles     int `json:"compiles"`
	Feasible     int `json:"feasible"`
	Infeasible   int `json:"infeasible"`
	TimedOut     int `json:"timed_out"`
	SolverChecks int `json:"solver_checks"`
	Mutants      int `json:"mutants"`
	UnsatProbes  int `json:"unsat_probes"`
	// ExplainChecks counts infeasible verdicts whose forensics blame set
	// was audited for joint unsatisfiability and minimality
	// (CampaignOptions.ExplainEvery).
	ExplainChecks int `json:"explain_checks"`
	// BPFCompiles/BPFFeasible count the opt-in register-machine oracle
	// iterations (CampaignOptions.BPFEvery); a feasible BPF config is
	// checked against the interpreter like its grid counterpart.
	BPFCompiles int `json:"bpf_compiles,omitempty"`
	BPFFeasible int `json:"bpf_feasible,omitempty"`
	// EngineProbes counts random compiled-engine-vs-interpreter probe
	// inputs fired by the line-rate differential oracle (the exhaustive
	// small-width sweeps it also runs are not counted here).
	EngineProbes int `json:"engine_probes"`
	Failures     int `json:"failures"`
	// Campaign effort: total wall clock, throughput, and the per-oracle
	// time split (summed across workers, so the *_ms fields can exceed
	// ElapsedMS under parallelism). These feed the performance history so
	// nightly fuzz throughput regressions are visible.
	ElapsedMS   float64 `json:"elapsed_ms"`
	ItersPerSec float64 `json:"iters_per_sec"`
	SolverMS    float64 `json:"solver_ms"`
	CompileMS   float64 `json:"compile_ms"`
	OracleMS    float64 `json:"oracle_ms"`
	MutantMS    float64 `json:"mutant_ms"`
	BPFMS       float64 `json:"bpf_ms,omitempty"`
}

// Samples flattens the summary for the performance history
// (internal/perfhist). iters_per_sec is the gate-worthy throughput
// metric; the rest give the trend tables their context.
func (s Summary) Samples() map[string]float64 {
	return map[string]float64{
		"iters":          float64(s.Iters),
		"compiles":       float64(s.Compiles),
		"feasible":       float64(s.Feasible),
		"infeasible":     float64(s.Infeasible),
		"timed_out":      float64(s.TimedOut),
		"solver_checks":  float64(s.SolverChecks),
		"mutants":        float64(s.Mutants),
		"explain_checks": float64(s.ExplainChecks),
		"engine_probes":  float64(s.EngineProbes),
		"failures":       float64(s.Failures),
		"bpf_compiles":   float64(s.BPFCompiles),
		"bpf_feasible":   float64(s.BPFFeasible),
		"elapsed_ms":     s.ElapsedMS,
		"iters_per_sec":  s.ItersPerSec,
		"solver_ms":      s.SolverMS,
		"compile_ms":     s.CompileMS,
		"oracle_ms":      s.OracleMS,
		"mutant_ms":      s.MutantMS,
		"bpf_ms":         s.BPFMS,
	}
}

// Run executes a campaign: every iteration differentially tests the SAT
// solver on a random CNF, round-trips it through DIMACS, compiles a random
// program through the full stack, cross-checks feasible results against
// the brute-force oracle, spot-checks infeasible claims by hole sampling,
// and periodically applies the metamorphic mutation oracle. It returns the
// summary plus all failures (minimized where a shrinker applies).
func Run(ctx context.Context, opts CampaignOptions) (Summary, []Failure, error) {
	var (
		mu       sync.Mutex
		sum      Summary
		failures []Failure
	)
	start := time.Now()
	deadline := time.Time{}
	if opts.Duration > 0 {
		deadline = time.Now().Add(opts.Duration)
	}

	record := func(f Failure) {
		mu.Lock()
		defer mu.Unlock()
		failures = append(failures, f)
		sum.Failures++
		if opts.Artifacts != nil {
			if b, err := json.Marshal(f); err == nil {
				fmt.Fprintln(opts.Artifacts, string(b))
			}
		}
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "FAIL iter=%d seed=%d kind=%s\n%s\n", f.Iter, f.Seed, f.Kind, f.Detail)
		}
	}

	iterCh := make(chan int)
	var wg sync.WaitGroup
	workers := opts.parallelism()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range iterCh {
				runIteration(ctx, i, opts, &mu, &sum, record)
			}
		}()
	}

feed:
	for i := 0; i < opts.iters(); i++ {
		if ctx.Err() != nil || (!deadline.IsZero() && time.Now().After(deadline)) {
			break feed
		}
		select {
		case iterCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(iterCh)
	wg.Wait()

	elapsed := time.Since(start)
	sum.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	if elapsed > 0 {
		sum.ItersPerSec = float64(sum.Iters) / elapsed.Seconds()
	}

	if opts.Log != nil {
		b, _ := json.Marshal(sum)
		fmt.Fprintf(opts.Log, "campaign summary: %s\n", string(b))
	}
	return sum, failures, nil
}

// runIteration is one unit of campaign work, fully determined by
// opts.Seed + i.
func runIteration(ctx context.Context, i int, opts CampaignOptions, mu *sync.Mutex, sum *Summary, record func(Failure)) {
	seed := opts.Seed + int64(i)
	rng := rand.New(rand.NewSource(seed))
	count := func(f func(s *Summary)) {
		mu.Lock()
		f(sum)
		mu.Unlock()
	}
	count(func(s *Summary) { s.Iters++ })
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

	// Stage 1: solver differential + DIMACS round trip. Cheap, every
	// iteration; this is what catches solver mutations within a few
	// hundred iterations regardless of how compiles behave.
	t0 := time.Now()
	f := RandomFormula(rng)
	count(func(s *Summary) { s.SolverChecks++ })
	if d := CheckSolver(f, nil); d != nil {
		record(Failure{Iter: i, Seed: seed, Kind: d.Kind, Detail: d.Detail})
	}
	if d := CheckDIMACSRoundTrip(f); d != nil {
		record(Failure{Iter: i, Seed: seed, Kind: d.Kind, Detail: d.Detail})
	}
	solverDur := time.Since(t0)
	count(func(s *Summary) { s.SolverMS += ms(solverDur) })

	// Stage 2: compile a random program and re-validate the outcome.
	sc := RandomScenario(rng, opts.Gen)
	cctx, cancel := context.WithTimeout(ctx, opts.compileTimeout())
	t0 = time.Now()
	rep, err := core.Compile(cctx, sc.Prog, compileOptions(sc, seed))
	compileDur := time.Since(t0)
	cancel()
	count(func(s *Summary) { s.Compiles++; s.CompileMS += ms(compileDur) })
	t0 = time.Now()
	fail := func(kind, detail string, prog string, shrunken bool) {
		record(Failure{
			Iter: i, Seed: seed, Kind: kind, Detail: detail,
			Program: prog, Width: sc.Width, Stages: sc.MaxStages,
			ALU: sc.Stateful.Kind.String(), Shrunken: shrunken,
		})
	}
	switch {
	case err != nil:
		fail(KindCompileError, err.Error(), sc.Prog.Print(), false)
	case rep.TimedOut:
		count(func(s *Summary) { s.TimedOut++ })
	case rep.Feasible:
		count(func(s *Summary) { s.Feasible++ })
		if d := CheckConfigEquivalence(sc.Prog, rep.Config, seed); d != nil {
			min := shrinkCompileFailure(ctx, sc, seed, opts.compileTimeout())
			fail(d.Kind, d.Detail, min.Print(), min != sc.Prog)
		}
		// The compiled engine must track the interpreted datapath too.
		// Both sides are allocation-free, so these probes are nearly free
		// next to the compile that produced the config.
		const engineProbes = 4096
		count(func(s *Summary) { s.EngineProbes += engineProbes })
		if d := CheckEngineEquivalence(rep.Config, seed, engineProbes); d != nil {
			fail(d.Kind, d.Detail, sc.Prog.Print(), false)
		}
	default:
		count(func(s *Summary) { s.Infeasible++ })
		count(func(s *Summary) { s.UnsatProbes += opts.unsatSamples() })
		if d := SpotCheckInfeasible(sc, sc.MaxStages, opts.unsatSamples(), seed); d != nil {
			fail(d.Kind, d.Detail, sc.Prog.Print(), false)
		}
		// Forensics minimality oracle on a subsample: re-derive the blamed
		// UNSAT core for this verdict and hold it to its contract.
		if opts.explainEvery() > 0 && i%opts.explainEvery() == 0 {
			count(func(s *Summary) { s.ExplainChecks++ })
			ectx, ecancel := context.WithTimeout(ctx, opts.compileTimeout())
			d := CheckExplainMinimal(ectx, sc, sc.MaxStages, seed)
			ecancel()
			if d != nil {
				fail(d.Kind, d.Detail, sc.Prog.Print(), false)
			}
		}
	}
	oracleDur := time.Since(t0)
	count(func(s *Summary) { s.OracleMS += ms(oracleDur) })

	// Stage 2b: register-machine oracle on a subsample of iterations. The
	// same scenario is recompiled for the bpf target at the fixed fuzz slot
	// budget; a feasible register program must agree with the interpreter.
	// Infeasible and timed-out outcomes are accepted (the two targets'
	// resource models are incomparable, so no cross-target metamorphic
	// claim is made).
	if opts.BPFEvery > 0 && i%opts.BPFEvery == 0 {
		t0 = time.Now()
		bctx, bcancel := context.WithTimeout(ctx, opts.compileTimeout())
		brep, berr := core.Compile(bctx, sc.Prog, bpfScenarioOptions(sc, seed))
		bcancel()
		count(func(s *Summary) { s.BPFCompiles++ })
		switch {
		case berr != nil:
			fail(KindCompileError, "bpf: "+berr.Error(), sc.Prog.Print(), false)
		case brep.TimedOut || !brep.Feasible:
			// Accepted as-is.
		default:
			count(func(s *Summary) { s.BPFFeasible++ })
			if cfg, ok := brep.Artifact.(*bpf.Config); ok {
				if d := CheckBPFConfigEquivalence(sc.Prog, cfg, seed); d != nil {
					fail(d.Kind, "bpf: "+d.Detail, sc.Prog.Print(), false)
				}
			} else {
				fail(KindConfigMismatch, fmt.Sprintf("bpf artifact is %T, want *bpf.Config", brep.Artifact), sc.Prog.Print(), false)
			}
		}
		count(func(s *Summary) { s.BPFMS += ms(time.Since(t0)) })
	}

	// Stage 3: metamorphic oracle on a subsample of iterations.
	if opts.mutantsEvery() > 0 && i%opts.mutantsEvery() == 0 && err == nil && rep != nil && !rep.TimedOut {
		t0 = time.Now()
		mctx, mcancel := context.WithTimeout(ctx, 4*opts.compileTimeout())
		ds, merr := CheckMetamorphic(mctx, sc, 2, seed)
		mcancel()
		mutantDur := time.Since(t0)
		count(func(s *Summary) { s.Mutants += 2; s.MutantMS += ms(mutantDur) })
		if merr != nil {
			fail(KindCompileError, merr.Error(), sc.Prog.Print(), false)
		}
		for _, d := range ds {
			fail(d.Kind, d.Detail, sc.Prog.Print(), false)
		}
	}
}

// shrinkCompileFailure minimizes a program whose feasible config failed
// the equivalence oracle: the failure predicate recompiles each candidate
// and keeps it only if it still produces a feasible-but-wrong config.
func shrinkCompileFailure(ctx context.Context, sc Scenario, seed int64, timeout time.Duration) *ast.Program {
	pred := func(cand *ast.Program) bool {
		cctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		rep, err := core.Compile(cctx, cand, compileOptions(Scenario{
			Prog: cand, Width: sc.Width, MaxStages: sc.MaxStages,
			Stateless: sc.Stateless, Stateful: sc.Stateful,
		}, seed))
		if err != nil || rep.TimedOut || !rep.Feasible {
			return false
		}
		return CheckConfigEquivalence(cand, rep.Config, seed) != nil
	}
	return Shrink(sc.Prog, pred)
}
