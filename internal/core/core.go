// Package core is the Chipmunk code generator — the paper's primary
// contribution (§3). It compiles a Domino packet transaction onto a
// simulated PISA pipeline by:
//
//  1. canonicalizing packet fields and state variables (§3.1, Figure 4) so
//     field k occupies container k and state group j occupies stateful ALU
//     slot j, exploiting the symmetry of homogeneous grids;
//  2. generating a sketch of the datapath whose Table 1 hardware
//     configurations are synthesis holes (internal/sketch);
//  3. solving the sketch with CEGIS over the SAT backend (internal/cegis),
//     with narrow-width synthesis and wide-width verification (§3.1,
//     "Scaling Chipmunk to a large number of input bits"); and
//  4. minimizing pipeline depth by iterative deepening over the stage
//     count — Chipmunk tries a 1-stage grid first and widens only on proof
//     of infeasibility, which is why its resource usage in Figure 5 is
//     minimal and has no variance across program mutations.
//
// The compiler rejects nothing for syntactic reasons: any program whose
// semantics fit the grid's computational capabilities compiles, which is
// the property Table 2 measures against the classical Domino baseline.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/alu"
	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/bpf"
	"repro/internal/cegis"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/perfhist"
	"repro/internal/pisa"
	"repro/internal/portfolio"
	"repro/internal/sat"
	"repro/internal/sketch"
	"repro/internal/solcache"
	"repro/internal/word"
)

// Options configures a compilation.
type Options struct {
	// Target selects the compile backend: "pisa" (default) targets the
	// PISA grid of the source paper; "bpf" targets the restricted
	// eBPF-style register machine (internal/bpf, after K2). The size axis
	// the deepening search minimizes is stages for pisa and instruction
	// slots for bpf (MaxStages bounds both).
	Target string
	// Width is the PHV width: containers and ALUs per stage. Must cover
	// the program's packet fields (one container per field, §3.1).
	// Ignored by the bpf target, whose register file is derived from the
	// program's field count. At most MaxPISAWidth.
	Width int
	// MaxStages bounds the iterative-deepening search. 0 means 4.
	MaxStages int
	// BPFOpcodeMask restricts the bpf target's opcode vocabulary (a
	// bitmask over bpf.Opcode; 0 means the full ISA). The analogue of
	// choosing a per-benchmark stateful ALU template on the pisa target:
	// the machine description is a per-deployment input, and a leaner
	// ISA shrinks the synthesis search space. Ignored by pisa.
	BPFOpcodeMask uint32
	// StatelessALU is installed at every stateless grid point.
	StatelessALU alu.Stateless
	// StatefulALU is installed at every stateful grid point; per the
	// paper's evaluation it should be the template the program's original
	// Domino compilation used.
	StatefulALU alu.Stateful
	// SynthWidth and VerifyWidth set the CEGIS tier widths (0 = defaults:
	// 4 and 10 bits).
	SynthWidth  word.Width
	VerifyWidth word.Width
	// IndicatorAlloc uses indicator-variable packet-field allocation
	// instead of canonical allocation (Figure 4 ablation).
	IndicatorAlloc bool
	// SymmetryBreak asks the backend to prune grid symmetries from the
	// hole space (sketch.Options.SymmetryBreak). Backends without
	// interchangeable resources ignore it. Verdict-preserving; off by
	// default so the standard path's clause stream is untouched.
	SymmetryBreak bool
	// FixedStages disables depth minimization and synthesizes directly at
	// MaxStages (iterative-deepening ablation).
	FixedStages bool
	// Seed drives CEGIS's initial random test inputs.
	Seed int64
	// Parallelism, when >= 2, compiles via the portfolio scheduler
	// (internal/portfolio): candidate stage depths race concurrently on a
	// worker pool of this size instead of being probed sequentially, with
	// first-SAT-wins semantics that still return the minimum-depth
	// solution. 0 or 1 run the classic sequential iterative-deepening
	// loop, bit-for-bit identical to the pre-portfolio behaviour.
	Parallelism int
	// SeedFanout is how many diversified CEGIS seeds race per stage depth
	// in portfolio mode (0 or 1 = just Seed). Diversified seeds join with
	// a small stagger so fast compiles pay no redundancy cost, while
	// heavy-tailed solves recruit rivals that often finish first.
	SeedFanout int
	// RaceAllocs additionally races the opposite field-allocation mode
	// (canonical vs indicator) for every portfolio member.
	RaceAllocs bool
	// Trace receives CEGIS events, if non-nil. In portfolio mode events
	// from racing members arrive concurrently (distinguished by
	// Event.Member); the callback must be safe for concurrent use.
	Trace func(cegis.Event)
	// Progress receives solver counter snapshots from inside long SAT
	// solves (see cegis.Options.Progress), if non-nil.
	Progress func(phase string, st sat.Stats)
	// Cache, when non-nil, memoizes compilation outcomes by canonical
	// problem fingerprint (internal/solcache). Warm hits return the stored
	// configuration without invoking CEGIS; concurrent compilations of the
	// same canonical problem share one synthesis run. Timed-out runs are
	// never stored.
	Cache *solcache.Cache
	// History, when non-nil, appends one performance-history record per
	// compile: the CompileProfile rolled up from this compile's span tree
	// (internal/perfhist). When the context carries no tracer, Compile
	// installs a private one so the profile exists; history capture never
	// fails a compile — append errors are dropped.
	History *perfhist.Store
	// Explain runs the infeasibility-forensics pass when a fresh search
	// concludes infeasible (not on timeouts or cached verdicts): a gated
	// re-run with named constraint groups whose minimal UNSAT core is
	// attached to the report as Report.Explanation. Costs roughly one
	// extra compile attempt, and only when the compile already failed —
	// the feasible path is untouched.
	Explain bool
}

func (o *Options) maxStages() int {
	if o.MaxStages == 0 {
		return 4
	}
	return o.MaxStages
}

// targetName resolves the zero-value default target.
func (o *Options) targetName() string {
	if o.Target == "" {
		return "pisa"
	}
	return o.Target
}

// MaxPISAWidth is the widest PHV a pisa compile accepts. Building the
// sketch and loading its hole domains and seed tests into the solver does
// not stop at the compile deadline, and it costs more the wider the PHV,
// so past this width a compile outruns its timeout. Measured with
// `chipmunk -max-stages 1 -timeout 2s testdata/sampling.domino` on a
// 2-vCPU x86-64 host: width 128 compiles in 2.0 s, width 384 reports its
// timeout at 4.1 s and width 1000 at 8.7 s. The corpus programs use
// widths 2 and 3.
const MaxPISAWidth = 128

// ErrInvalidOptions reports option values no compile can honour.
var ErrInvalidOptions = errors.New("core: invalid options")

// Validate rejects option values no compile can honour before any work
// starts: a negative stage or slot bound, a pisa PHV width below one or
// above MaxPISAWidth, a negative immediate width, or a CEGIS tier width
// outside the range word.Width supports. Zero keeps each
// default. Errors wrap ErrInvalidOptions. Compile calls it first, so bad
// input from any caller is an error rather than a panic deep in encoding;
// the CLI reports it as a usage error and chipmunkd as a 400.
func (o Options) Validate() error {
	if o.MaxStages < 0 {
		return fmt.Errorf("%w: max stages %d is negative", ErrInvalidOptions, o.MaxStages)
	}
	if o.targetName() == "pisa" && o.Width < 1 {
		return fmt.Errorf("%w: pisa width %d, need at least 1", ErrInvalidOptions, o.Width)
	}
	if o.targetName() == "pisa" && o.Width > MaxPISAWidth {
		return fmt.Errorf("%w: pisa width %d, at most %d", ErrInvalidOptions, o.Width, MaxPISAWidth)
	}
	for _, cb := range []int{o.StatelessALU.ConstBits, o.StatefulALU.ConstBits} {
		if cb < 0 {
			return fmt.Errorf("%w: const bits %d is negative", ErrInvalidOptions, cb)
		}
	}
	for _, tier := range []struct {
		name string
		w    word.Width
	}{{"synth width", o.SynthWidth}, {"verify width", o.VerifyWidth}} {
		if tier.w == 0 {
			continue
		}
		if err := tier.w.Validate(); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrInvalidOptions, tier.name, err)
		}
	}
	return nil
}

// ErrUnknownTarget reports an unrecognized Options.Target.
var ErrUnknownTarget = fmt.Errorf("core: unknown target (want %q or %q)", "pisa", "bpf")

// bpfBackend builds the register-machine backend for a compile: the
// immediate width follows the stateless ALU's (both are the frontend's
// constant vocabulary), the register file is derived per program, and the
// opcode vocabulary follows the per-deployment machine description.
func bpfBackend(opts Options) bpf.Backend {
	return bpf.Backend{Spec: bpf.MachineSpec{
		ConstBits:  opts.StatelessALU.EffectiveConstBits(),
		OpcodeMask: opts.BPFOpcodeMask,
	}}
}

// backendFor maps Options onto a backend.Backend. The pisa adapter's
// allocation mode is the per-attempt cegis option, so it is passed
// explicitly (portfolio members race both modes); symmetry breaking is
// passed explicitly too, because the forensics pass must build a
// symmetry-free backend so UNSAT cores blame only real resources.
func backendFor(opts Options, indicatorAlloc, symmetry bool) (backend.Backend, error) {
	switch opts.targetName() {
	case "pisa":
		return sketch.PISABackend{Grid: gridSpec(opts), Opts: sketch.Options{IndicatorAlloc: indicatorAlloc, SymmetryBreak: symmetry}}, nil
	case "bpf":
		return bpfBackend(opts), nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownTarget, opts.Target)
}

// DepthResult records one iterative-deepening probe (or one portfolio
// member's attempt).
type DepthResult struct {
	Stages   int
	Feasible bool
	TimedOut bool
	Iters    int
	HoleBits int
	Elapsed  time.Duration
	// Seed is the CEGIS seed the probe used (portfolio fanout diversifies
	// it per member).
	Seed int64
	// Member labels the portfolio member that ran this probe (e.g.
	// "d2.s1.canon"); empty on the sequential path.
	Member string
	// Pruned marks a depth skipped without any SAT effort because the
	// portfolio's witness-based depth floor proved it infeasible.
	Pruned bool
	// Canceled marks a portfolio attempt aborted because a sibling's
	// result made it moot (superseded by a SAT, or implied infeasible by
	// a deeper UNSAT).
	Canceled bool
	// Solver-effort telemetry for this probe (see cegis.Result).
	SynthConflicts  int64
	VerifyConflicts int64
	Decisions       int64
	Propagations    int64
	PeakCNFVars     int
}

// Effort aggregates solver effort across deepening attempts — the numbers
// the evaluation harness reports alongside Table 2's wall-clock columns.
type Effort struct {
	// Iters is the total CEGIS iterations across all stage counts probed.
	Iters int
	// Conflicts sums synthesis- and verification-phase SAT conflicts.
	Conflicts    int64
	Decisions    int64
	Propagations int64
	// PeakCNFVars is the largest single-solver encoding reached.
	PeakCNFVars int
}

// Report is the outcome of a compilation.
type Report struct {
	// Program is the compiled program's name.
	Program string
	// Target names the backend compiled for ("pisa", "bpf").
	Target string
	// Feasible reports whether code generation succeeded.
	Feasible bool
	// TimedOut reports whether the context expired first (Table 2's
	// failure mode for flowlet mutations).
	TimedOut bool
	// Cached reports that the outcome came from the solution cache (or a
	// completed shared in-flight run) without a fresh CEGIS search; Depths
	// is empty in that case. A compile whose wait on a shared run expired,
	// or that received a shared run's timed-out verdict, reports TimedOut
	// with Cached false — nothing definitive came from the cache.
	Cached bool
	// Artifact is the synthesized configuration when feasible, whatever
	// the target.
	Artifact backend.Config
	// Config is Artifact's concrete type for the PISA target (nil for
	// other targets), kept for existing callers' static typing.
	Config *pisa.Config
	// Usage is the Figure 5 resource report for Config (PISA only).
	Usage pisa.Usage
	// Depths records every stage count probed, in order. In portfolio
	// mode it holds one entry per member that ran (plus Pruned markers
	// for floor-skipped depths), ordered by depth then seed slot.
	Depths []DepthResult
	// Winner labels the portfolio member that produced Config (empty on
	// the sequential path).
	Winner string
	// WastedConflicts sums the SAT conflicts spent by portfolio members
	// other than the winner — the redundancy cost of racing. Zero on the
	// sequential path.
	WastedConflicts int64
	// Explanation is the infeasibility-forensics report (Options.Explain):
	// the binding resource dimension and a minimal blamed constraint set.
	// Nil unless the compile concluded infeasible with Explain set.
	Explanation *Explanation
	// Elapsed is total compile time (Table 2's time column).
	Elapsed time.Duration
}

// Effort sums the solver effort of every deepening attempt in the report.
func (r *Report) Effort() Effort {
	var e Effort
	for _, d := range r.Depths {
		e.Iters += d.Iters
		e.Conflicts += d.SynthConflicts + d.VerifyConflicts
		e.Decisions += d.Decisions
		e.Propagations += d.Propagations
		if d.PeakCNFVars > e.PeakCNFVars {
			e.PeakCNFVars = d.PeakCNFVars
		}
	}
	return e
}

// Compile runs Chipmunk on a program. Cancel or time out the context to
// bound code-generation time; an expired context yields a Report with
// TimedOut set rather than an error.
//
// With Options.Cache set, the problem's canonical fingerprint is consulted
// first: a warm hit skips synthesis entirely and returns the stored
// configuration — translated onto this program's own variable names, since
// alpha-renamed programs share a fingerprint — with Report.Cached set, and
// concurrent compilations of the same canonical problem share a single
// underlying CEGIS run.
func Compile(ctx context.Context, prog *ast.Program, opts Options) (*Report, error) {
	start := time.Now()
	rep := &Report{Program: prog.Name, Target: opts.targetName()}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if _, err := backendFor(opts, opts.IndicatorAlloc, opts.SymmetryBreak); err != nil {
		return nil, err
	}

	// History capture needs a span tree to roll up; give the compile a
	// private tracer when the caller installed none.
	if opts.History != nil && obs.TracerFrom(ctx) == nil {
		ctx = obs.ContextWithTracer(ctx, obs.NewTracer())
	}

	ctx, span := obs.StartSpan(ctx, "compile",
		obs.String("program", prog.Name), obs.Int("width", opts.Width))
	defer func() {
		pruned := 0
		for _, d := range rep.Depths {
			if d.Pruned {
				pruned++
			}
		}
		span.End(obs.Bool("feasible", rep.Feasible), obs.Bool("timedout", rep.TimedOut),
			obs.Bool("cached", rep.Cached), obs.Int("attempts", len(rep.Depths)),
			obs.Int("pruned", pruned))
		if opts.History != nil {
			if p, perr := obs.TracerFrom(ctx).Profile(); perr == nil {
				opts.History.AppendProfile(prog.Name, p)
			}
		}
	}()

	// Parallelism >= 2 swaps the sequential iterative-deepening loop for
	// the portfolio scheduler; both fill rep through the shared attempt
	// body, so the two paths cannot drift.
	searchFn := search
	if opts.Parallelism > 1 {
		searchFn = searchPortfolio
	}

	if opts.Cache != nil {
		key := cacheKey(prog, opts)
		ran := false
		sol, err := opts.Cache.Do(ctx, key, func(ctx context.Context) (solcache.Solution, bool, error) {
			ran = true
			if err := searchFn(ctx, prog, opts, rep); err != nil {
				return solcache.Solution{}, false, err
			}
			sol := solcache.Solution{
				Feasible: rep.Feasible,
				TimedOut: rep.TimedOut,
				Config:   rep.Config,
				Stages:   rep.Usage.Stages,
				Iters:    rep.Effort().Iters,
			}
			if bc, ok := rep.Artifact.(*bpf.Config); ok {
				sol.BPF = bc
				sol.Stages = bc.Spec.Slots
			}
			return sol, !rep.TimedOut, nil
		})
		if err != nil {
			return nil, err
		}
		switch {
		case ran:
			// Leader: rep was filled by search directly.
		case sol.TimedOut:
			// Follower whose wait on the shared run expired, or whose
			// leader itself timed out: a timeout, not a cache hit.
			rep.TimedOut = true
		default:
			// Cache hit or completed shared run. The stored config names
			// the variables of whichever program first solved this
			// canonical problem — alpha-renamed programs collide by
			// design — so translate it onto this program's names, then
			// cross-check it against this program's semantics exactly as a
			// fresh synthesis would be.
			sol, err = sol.ForProgram(prog)
			if err != nil {
				return nil, fmt.Errorf("core: %s: %w", prog.Name, err)
			}
			rep.Cached = true
			rep.Feasible = sol.Feasible
			rep.Config = sol.Config
			if sol.Config != nil {
				rep.Artifact = sol.Config
				rep.Usage = sol.Config.Usage()
			}
			if sol.BPF != nil {
				rep.Artifact = sol.BPF
			}
			if rep.Artifact != nil {
				if err := crossCheck(prog, rep.Artifact, opts.Seed); err != nil {
					return nil, fmt.Errorf("core: %s: cached configuration: %w", prog.Name, err)
				}
			}
		}
		maybeExplain(ctx, prog, opts, rep)
		rep.Elapsed = time.Since(start)
		return rep, nil
	}

	if err := searchFn(ctx, prog, opts, rep); err != nil {
		return nil, err
	}
	maybeExplain(ctx, prog, opts, rep)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// Fingerprint returns the canonical solution-cache fingerprint of a
// compilation as a string — the correlation key joining a daemon's
// structured log lines, flight-recorder dumps, and cache entries for one
// canonical problem. Alpha-renamed programs share a fingerprint by
// design (see solcache).
func Fingerprint(prog *ast.Program, opts Options) string {
	return string(cacheKey(prog, opts))
}

// cacheKey derives the solution-cache fingerprint for a compilation. The
// seed, the callbacks, the portfolio knobs (Parallelism, SeedFanout,
// RaceAllocs), and SymmetryBreak are excluded: they steer the search, not
// the validity of its result — symmetry breaking is verdict-preserving —
// so one canonical problem keeps one fingerprint regardless of strategy
// and a portfolio winner populates the same entry a sequential run would.
func cacheKey(prog *ast.Program, opts Options) solcache.Key {
	p := solcache.Problem{
		Program: prog,
		Target:  opts.targetName(),
		Grid: pisa.GridSpec{
			Width:        opts.Width,
			WordWidth:    10,
			StatelessALU: opts.StatelessALU,
			StatefulALU:  opts.StatefulALU,
		},
		MaxStages:      opts.maxStages(),
		FixedStages:    opts.FixedStages,
		SynthWidth:     opts.SynthWidth,
		VerifyWidth:    opts.VerifyWidth,
		IndicatorAlloc: opts.IndicatorAlloc,
	}
	if p.Target == "bpf" {
		p.BPF = bpfBackend(opts).Spec
	}
	return p.Fingerprint()
}

// gridSpec builds the grid template shared by every attempt of a compile.
func gridSpec(opts Options) pisa.GridSpec {
	return pisa.GridSpec{
		Width:        opts.Width,
		WordWidth:    10, // placeholder; CEGIS manages widths
		StatelessALU: opts.StatelessALU,
		StatefulALU:  opts.StatefulALU,
	}
}

// attempt runs one synthesis probe at a fixed program size (stage count
// for pisa, slot count for bpf): build the backend, run CEGIS, and
// validate + interpreter-cross-check a feasible configuration. Both the
// sequential deepening loop and the portfolio scheduler go through this
// body, so the two paths cannot drift. The returned cegis.Result carries
// the configuration when feasible.
func attempt(ctx context.Context, prog *ast.Program, opts Options, stages int, copts cegis.Options) (DepthResult, *cegis.Result, error) {
	be, err := backendFor(opts, copts.IndicatorAlloc, opts.SymmetryBreak)
	if err != nil {
		return DepthResult{}, nil, err
	}
	obs.MetricsFrom(ctx).Counter("core.attempts").Add(1)
	attrs := []obs.Attr{obs.Int("stages", stages)}
	if copts.Member != "" {
		attrs = append(attrs, obs.String("member", copts.Member))
	}
	actx, aspan := obs.StartSpan(ctx, "attempt", attrs...)
	res, err := cegis.SynthesizeOn(actx, prog, be, stages, copts)
	if err != nil {
		aspan.End(obs.String("outcome", "error"))
		return DepthResult{}, nil, fmt.Errorf("core: %s at %d stages: %w", prog.Name, stages, err)
	}
	outcome := "infeasible"
	switch {
	case res.TimedOut:
		outcome = "timeout"
	case res.Feasible:
		outcome = "feasible"
	}
	aspan.End(obs.String("outcome", outcome), obs.Int("iters", res.Iters))
	dr := DepthResult{
		Stages:          stages,
		Feasible:        res.Feasible,
		TimedOut:        res.TimedOut,
		Iters:           res.Iters,
		HoleBits:        res.HoleBits,
		Elapsed:         res.Elapsed,
		Seed:            copts.Seed,
		Member:          copts.Member,
		SynthConflicts:  res.SynthConflicts,
		VerifyConflicts: res.VerifyConflicts,
		Decisions:       res.Decisions,
		Propagations:    res.Propagations,
		PeakCNFVars:     res.PeakCNFVars,
	}
	if res.Feasible {
		if err := res.TargetConfig.Validate(); err != nil {
			return dr, nil, fmt.Errorf("core: synthesized configuration invalid: %w", err)
		}
		if err := crossCheck(prog, res.TargetConfig, copts.Seed); err != nil {
			return dr, nil, fmt.Errorf("core: %s: %w", prog.Name, err)
		}
	}
	return dr, res, nil
}

// search runs the iterative-deepening synthesis loop, filling rep in place.
func search(ctx context.Context, prog *ast.Program, opts Options, rep *Report) error {
	copts := cegis.Options{
		SynthWidth:     opts.SynthWidth,
		VerifyWidth:    opts.VerifyWidth,
		IndicatorAlloc: opts.IndicatorAlloc,
		Seed:           opts.Seed,
		Trace:          opts.Trace,
		Progress:       opts.Progress,
	}

	lo := 1
	if opts.FixedStages {
		lo = opts.maxStages()
	}
	for stages := lo; stages <= opts.maxStages(); stages++ {
		dr, res, err := attempt(ctx, prog, opts, stages, copts)
		if err != nil {
			return err
		}
		rep.Depths = append(rep.Depths, dr)
		if res.TimedOut {
			rep.TimedOut = true
			break
		}
		if !res.Feasible {
			continue
		}
		rep.Feasible = true
		rep.Artifact = res.TargetConfig
		rep.Config = res.Config
		if res.Config != nil {
			rep.Usage = res.Config.Usage()
		}
		break
	}
	return nil
}

// memberAttempt is what one portfolio member's run yields.
type memberAttempt struct {
	dr  DepthResult
	res *cegis.Result
}

// searchPortfolio races the candidate stage depths (and diversified
// seeds/allocation modes) via internal/portfolio, filling rep in place
// with first-SAT-wins, minimum-depth semantics. Depths below the
// witness-proven floor (portfolio.DepthFloor) are pruned without SAT
// effort and recorded as Pruned DepthResults.
func searchPortfolio(ctx context.Context, prog *ast.Program, opts Options, rep *Report) error {
	maxS := opts.maxStages()
	lo := 1
	if opts.FixedStages {
		lo = maxS
	}

	pctx, pspan := obs.StartSpan(ctx, "portfolio",
		obs.Int("parallelism", opts.Parallelism), obs.Int("fanout", opts.SeedFanout))
	defer func() {
		pspan.End(obs.String("winner", rep.Winner),
			obs.Bool("feasible", rep.Feasible),
			obs.Int64("wasted_conflicts", rep.WastedConflicts))
	}()

	floor := lo
	if !opts.FixedStages && opts.targetName() == "pisa" {
		// The depth floor's witnesses reason about stateful-ALU placement
		// on the PISA grid; the BPF slot axis has no analogue, so bpf
		// races from the minimum size.
		// The floor's witnesses must run at the width feasibility is
		// defined at: the CEGIS verification width (raised to the
		// synthesis width when that is wider, mirroring cegis's clamp).
		vw := opts.VerifyWidth
		if vw == 0 {
			vw = cegis.DefaultVerifyWidth
		}
		if sw := opts.SynthWidth; sw > vw {
			vw = sw
		}
		if f := portfolio.DepthFloor(prog, opts.StatefulALU, vw, opts.Seed); f > floor {
			floor = f
		}
		for d := lo; d < floor && d <= maxS; d++ {
			obs.MetricsFrom(pctx).Counter("portfolio.pruned").Add(1)
			rep.Depths = append(rep.Depths, DepthResult{Stages: d, Pruned: true})
		}
		if floor > maxS {
			// Every depth in range is witness-proven infeasible; no SAT
			// effort needed.
			return nil
		}
	}

	spec := portfolio.Spec{
		MinStages:      floor,
		MaxStages:      maxS,
		SeedFanout:     opts.SeedFanout,
		BaseSeed:       opts.Seed,
		IndicatorAlloc: opts.IndicatorAlloc,
		RaceAllocs:     opts.RaceAllocs,
	}
	res, err := portfolio.Run(pctx, spec.Members(), opts.Parallelism,
		func(mctx context.Context, m portfolio.Member) (memberAttempt, portfolio.Verdict, error) {
			copts := cegis.Options{
				SynthWidth:     opts.SynthWidth,
				VerifyWidth:    opts.VerifyWidth,
				IndicatorAlloc: m.IndicatorAlloc,
				Seed:           m.Seed,
				Trace:          opts.Trace,
				Progress:       opts.Progress,
				Member:         m.Label,
			}
			dr, cres, err := attempt(mctx, prog, opts, m.Stages, copts)
			if err != nil {
				return memberAttempt{}, portfolio.Unknown, err
			}
			v := portfolio.Infeasible
			switch {
			case cres.TimedOut:
				v = portfolio.TimedOut
			case cres.Feasible:
				v = portfolio.Feasible
			}
			return memberAttempt{dr: dr, res: cres}, v, nil
		})
	if err != nil {
		return err
	}

	for _, o := range res.Outcomes {
		if !o.Ran {
			continue
		}
		dr := o.Value.dr
		if o.Verdict == portfolio.Canceled {
			// The member was aborted mid-solve by a sibling's result; its
			// context expiry is not a compile timeout.
			dr.Canceled = true
			dr.TimedOut = false
		}
		rep.Depths = append(rep.Depths, dr)
		if res.Winner == nil || o.Member.Index != res.Winner.Member.Index {
			rep.WastedConflicts += dr.SynthConflicts + dr.VerifyConflicts
		}
	}
	obs.MetricsFrom(pctx).Counter("portfolio.wasted_conflicts").Add(rep.WastedConflicts)

	switch {
	case res.Winner != nil:
		win := res.Winner.Value
		rep.Feasible = true
		rep.Artifact = win.res.TargetConfig
		rep.Config = win.res.Config
		if win.res.Config != nil {
			rep.Usage = win.res.Config.Usage()
		}
		rep.Winner = res.Winner.Member.Label
		// Record the race outcome in the registry by allocation mode, so
		// a daemon's /metrics shows which member family wins over time.
		mode := "canon"
		if res.Winner.Member.IndicatorAlloc {
			mode = "ind"
		}
		obs.MetricsFrom(pctx).Counter("portfolio.winner." + mode).Add(1)
	case res.TimedOut:
		rep.TimedOut = true
	}
	return nil
}

// crossCheck differentially tests the synthesized configuration against the
// reference interpreter on random inputs at the configuration's run width.
// CEGIS already proved equivalence at that width through the SAT backend;
// this guards the toolchain itself (sketch extraction, simulator) against
// bugs, in the spirit of translation validation.
func crossCheck(prog *ast.Program, cfg backend.Config, seed int64) error {
	w := cfg.RunWidth()
	fields, states := cfg.Vars()
	in := interp.MustNew(w)
	rng := rand.New(rand.NewSource(seed + 1))
	for trial := 0; trial < 64; trial++ {
		snap := interp.NewSnapshot()
		for _, f := range fields {
			snap.Pkt[f] = w.Trunc(rng.Uint64())
		}
		for _, s := range states {
			snap.State[s] = w.Trunc(rng.Uint64())
		}
		want, err := in.Run(prog, snap)
		if err != nil {
			return err
		}
		gotPkt, gotState := cfg.Exec(snap.Pkt, snap.State)
		for _, f := range fields {
			if gotPkt[f] != want.Pkt[f] {
				return fmt.Errorf("cross-check failed on %s: pkt.%s = %d, spec says %d",
					snap, f, gotPkt[f], want.Pkt[f])
			}
		}
		for _, s := range states {
			if gotState[s] != want.State[s] {
				return fmt.Errorf("cross-check failed on %s: state %s = %d, spec says %d",
					snap, s, gotState[s], want.State[s])
			}
		}
	}
	return nil
}
