// Package approx implements the paper's second future-work direction
// (§5.2, "Approximate Program Synthesis"): trading accuracy for data-plane
// resources.
//
// The idea (after Bornholt et al.'s approximate-synthesis framework the
// paper cites) is to weaken the CEGIS correctness condition from
//
//	∀x : S(x) = P(x, c)
//
// to
//
//	∀x : care(x) ≠ 0 → S(x) = P(x, c)
//
// where care is a programmer-supplied predicate over the packet and state
// describing the inputs whose behaviour matters — e.g. "counters below the
// overflow threshold", "RTTs inside the measurable window". Everything the
// unmodified Chipmunk pipeline needs carries over: the sketch, the SAT
// backend, the two-tier widths. Only the two CEGIS phases change: synthesis
// discards test inputs outside the care set, and verification conjoins the
// care predicate with the disagreement condition, so counterexamples are
// always inputs the programmer cares about.
//
// The payoff mirrors the paper's motivation: programs that do not fit a
// grid exactly often fit once the don't-care space absorbs the difference,
// saving stages or ALUs (see the package tests and the ablation bench).
package approx

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/arith"
	"repro/internal/ast"
	"repro/internal/circuit"
	"repro/internal/interp"
	"repro/internal/pisa"
	"repro/internal/sat"
	"repro/internal/sketch"
	"repro/internal/word"
)

// Options mirrors cegis.Options plus the care predicate.
type Options struct {
	// Care is a Domino expression over pkt.* and state variables; inputs
	// where it evaluates to zero are don't-cares. nil means exact
	// synthesis (care ≡ 1).
	Care ast.Expr
	// SynthWidth and VerifyWidth are the CEGIS tier widths (0 = 4 / 10).
	SynthWidth  word.Width
	VerifyWidth word.Width
	// MaxIters bounds CEGIS iterations. 0 means 64.
	MaxIters int
	// Seed drives initial test inputs.
	Seed int64
}

func (o *Options) synthWidth() word.Width {
	if o.SynthWidth == 0 {
		return 4
	}
	return o.SynthWidth
}

func (o *Options) verifyWidth() word.Width {
	if o.VerifyWidth == 0 {
		return 10
	}
	return o.VerifyWidth
}

func (o *Options) maxIters() int {
	if o.MaxIters == 0 {
		return 64
	}
	return o.MaxIters
}

// Result reports an approximate-synthesis run.
type Result struct {
	Feasible bool
	TimedOut bool
	Config   *pisa.Config
	Iters    int
	Elapsed  time.Duration
}

// Synthesize fits prog onto the grid, required to be correct only on
// inputs satisfying opts.Care.
func Synthesize(ctx context.Context, prog *ast.Program, grid pisa.GridSpec, opts Options) (*Result, error) {
	start := time.Now()
	res := &Result{}

	vars := prog.Variables()
	fields, states := vars.Fields, vars.States
	if len(fields) > grid.Width || len(states) > grid.StateSlots() {
		res.Elapsed = time.Since(start)
		return res, nil
	}

	b := circuit.New()
	sk, err := sketch.New(b, grid, len(fields), len(states), sketch.Options{})
	if err != nil {
		return nil, err
	}
	solver := sat.New()
	cnf := circuit.NewCNF(b, solver)
	sk.AssertDomains(cnf)

	sw, vw := opts.synthWidth(), opts.verifyWidth()
	if mw := sk.MinWidth(); sw < mw {
		sw = mw
	}
	if vw < sw {
		vw = sw
	}

	// cares evaluates the care predicate concretely at width w.
	cares := func(x interp.Snapshot, w word.Width) (bool, error) {
		if opts.Care == nil {
			return true, nil
		}
		env := arith.NewEnv[uint64]()
		for _, f := range fields {
			env.Pkt[f] = w.Trunc(x.Pkt[f])
		}
		for _, s := range states {
			env.State[s] = w.Trunc(x.State[s])
		}
		v, err := arith.EvalExpr[uint64](arith.Conc{W: w}, opts.Care, env)
		if err != nil {
			return false, err
		}
		return word.Truthy(v), nil
	}

	addTest := func(x interp.Snapshot, w word.Width) error {
		in := interp.MustNew(w)
		spec, err := in.Run(prog, x)
		if err != nil {
			return err
		}
		fw := make([]circuit.Word, len(fields))
		for i, f := range fields {
			fw[i] = b.ConstWord(w.Trunc(x.Pkt[f]), w)
		}
		swd := make([]circuit.Word, len(states))
		for i, s := range states {
			swd[i] = b.ConstWord(w.Trunc(x.State[s]), w)
		}
		outF, outS := sk.Instantiate(w, fw, swd)
		for i, f := range fields {
			cnf.Assert(b.EqW(outF[i], b.ConstWord(spec.Pkt[f], w)))
		}
		for i, s := range states {
			cnf.Assert(b.EqW(outS[i], b.ConstWord(spec.State[s], w)))
		}
		return nil
	}

	// Seed with caring inputs only.
	rng := rand.New(rand.NewSource(opts.Seed))
	seeded := 0
	for attempts := 0; seeded < 3 && attempts < 200; attempts++ {
		x := interp.NewSnapshot()
		if attempts > 0 { // first attempt: all-zeros
			for _, f := range fields {
				x.Pkt[f] = sw.Trunc(rng.Uint64())
			}
			for _, s := range states {
				x.State[s] = sw.Trunc(rng.Uint64())
			}
		}
		ok, err := cares(x, sw)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if err := addTest(x, sw); err != nil {
			return nil, err
		}
		seeded++
	}

	for iter := 1; iter <= opts.maxIters(); iter++ {
		res.Iters = iter
		st, timedOut := solveChunked(ctx, solver)
		if timedOut {
			res.TimedOut = true
			res.Elapsed = time.Since(start)
			return res, nil
		}
		if st == sat.Unsat {
			res.Elapsed = time.Since(start)
			return res, nil
		}
		cfg := sk.ExtractConfig(cnf, fields, states, vw)

		cex, verified, timedOut, err := verify(ctx, prog, cfg, opts.Care, fields, states, vw)
		if err != nil {
			return nil, err
		}
		if timedOut {
			res.TimedOut = true
			res.Elapsed = time.Since(start)
			return res, nil
		}
		if verified {
			res.Feasible = true
			res.Config = cfg
			res.Elapsed = time.Since(start)
			return res, nil
		}
		if err := addTest(cex, vw); err != nil {
			return nil, err
		}
	}
	res.Elapsed = time.Since(start)
	return res, fmt.Errorf("approx: CEGIS did not converge after %d iterations", res.Iters)
}

// verify searches for a caring input where the pipeline and spec disagree.
func verify(ctx context.Context, prog *ast.Program, cfg *pisa.Config, care ast.Expr, fields, states []string, w word.Width) (interp.Snapshot, bool, bool, error) {
	b := circuit.New()
	cc := arith.Circ{B: b, W: w}
	env := arith.NewEnv[circuit.Word]()
	fw := make([]circuit.Word, len(fields))
	for i, f := range fields {
		fw[i] = b.InputWord(w)
		env.Pkt[f] = fw[i]
	}
	swd := make([]circuit.Word, len(states))
	for i, s := range states {
		swd[i] = b.InputWord(w)
		env.State[s] = swd[i]
	}

	g := cfg.Grid
	g.WordWidth = w
	holes := pisa.MapHoles(cfg.Values, func(v uint64) circuit.Word { return b.ConstWord(v, w) })
	pipeF, pipeS := pisa.Datapath[circuit.Word](cc, g, holes, fw, swd)

	specEnv, err := arith.EvalProgram[circuit.Word](cc, prog, env)
	if err != nil {
		return interp.Snapshot{}, false, false, err
	}

	equal := circuit.True
	for i, f := range fields {
		equal = b.And(equal, b.EqW(pipeF[i], specEnv.Pkt[f]))
	}
	for i, s := range states {
		equal = b.And(equal, b.EqW(pipeS[i], specEnv.State[s]))
	}

	solver := sat.New()
	cnf := circuit.NewCNF(b, solver)
	// Disagreement AND care: don't-care inputs cannot refute.
	cnf.Assert(b.Not(equal))
	if care != nil {
		careW, err := arith.EvalExpr[circuit.Word](cc, care, env)
		if err != nil {
			return interp.Snapshot{}, false, false, err
		}
		cnf.Assert(b.NonZero(careW))
	}
	st, timedOut := solveChunked(ctx, solver)
	if timedOut {
		return interp.Snapshot{}, false, true, nil
	}
	if st == sat.Unsat {
		return interp.Snapshot{}, true, false, nil
	}
	cex := interp.NewSnapshot()
	for i, f := range fields {
		cex.Pkt[f] = cnf.WordValue(fw[i])
	}
	for i, s := range states {
		cex.State[s] = cnf.WordValue(swd[i])
	}
	return cex, false, false, nil
}

func solveChunked(ctx context.Context, s *sat.Solver) (sat.Status, bool) {
	for {
		select {
		case <-ctx.Done():
			return sat.Unknown, true
		default:
		}
		st, err := s.SolveWithBudget(2000)
		if err == nil {
			return st, false
		}
	}
}
