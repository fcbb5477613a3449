package difftest

import (
	"fmt"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/linerate"
	"repro/internal/pisa"
	"repro/internal/word"
)

// Discrepancy is one oracle violation: concrete evidence that two layers
// of the toolchain disagree. Kind names the oracle; Detail is
// human-readable evidence including the offending input.
type Discrepancy struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

func (d *Discrepancy) String() string { return d.Kind + ": " + d.Detail }

// Oracle kinds.
const (
	KindConfigMismatch  = "config-mismatch"     // interpreter vs simulated config disagree
	KindSolverMismatch  = "solver-mismatch"     // CDCL vs reference solver verdicts disagree
	KindModelInvalid    = "model-invalid"       // CDCL SAT model does not satisfy the formula
	KindDIMACSRoundTrip = "dimacs-roundtrip"    // emit/parse round trip lost the formula
	KindMetamorphic     = "metamorphic"         // mutant compile outcome differs from source
	KindMutantInequiv   = "mutant-inequivalent" // a "semantics-preserving" rewrite changed semantics
	KindMissedSolution  = "missed-solution"     // infeasible claim, but sampling found a config
	KindCompileError    = "compile-error"       // Compile returned a hard error
	KindConfigInvalid   = "config-invalid"      // synthesized config fails validation
	KindEngineMismatch  = "engine-mismatch"     // compiled line-rate engine vs interpreted datapath disagree
	KindCoreNotMinimal  = "core-not-minimal"    // blamed UNSAT core fails its minimality contract on re-solve
	KindExplainDiverged = "explain-diverged"    // gated forensics rerun found a config where ungated proved UNSAT
)

// exhaustiveCheckWidth is the small width used for exhaustive
// interpreter-vs-simulator enumeration. It must be at least the sketch's
// minimum sound width (the widest control hole — the 4-bit stateless
// opcode), since Config.Exec truncates hole values to the datapath width.
const exhaustiveCheckWidth = word.Width(5)

// exhaustiveBitBudget caps the exhaustive input space (2^20 transactions).
const exhaustiveBitBudget = 20

// CheckConfigEquivalence is the brute-force reference oracle for feasible
// compile results: the synthesized configuration must agree with the
// reference interpreter input-for-input. It enumerates the full input
// space at a small width when that is feasible, and samples random inputs
// at the configuration's own (verification) width either way. CEGIS
// already proved equivalence via SAT; this re-proves it end-to-end without
// trusting internal/sat or internal/circuit.
func CheckConfigEquivalence(prog *ast.Program, cfg *pisa.Config, seed int64) *Discrepancy {
	nVars := len(cfg.Fields) + len(cfg.States)

	// Exhaustive sweep at a small width, if the input space fits.
	if int(exhaustiveCheckWidth)*nVars <= exhaustiveBitBudget {
		small := *cfg
		small.Grid.WordWidth = exhaustiveCheckWidth
		if d := sweepExhaustive(prog, &small); d != nil {
			return d
		}
	}

	// Random probing at the configuration's run width (VerifyWidth).
	rng := rand.New(rand.NewSource(seed))
	return probeRandom(prog, cfg, rng, 512)
}

// configProbe bundles a configuration with the reusable buffers of its
// allocation-free execution path, so the probe loops below run the config
// side without per-input allocation (the interpreter side still builds
// snapshots — it is the reference, not the bottleneck we control).
type configProbe struct {
	cfg     *pisa.Config
	scratch *pisa.ExecScratch
	fv, sv  []uint64
}

func newConfigProbe(cfg *pisa.Config) *configProbe {
	return &configProbe{
		cfg:     cfg,
		scratch: cfg.NewScratch(),
		fv:      make([]uint64, len(cfg.Fields)),
		sv:      make([]uint64, len(cfg.States)),
	}
}

// compareAt runs one input through the interpreter and the simulator and
// reports the first disagreement on the config's variables.
func (cp *configProbe) compareAt(in *interp.Interp, prog *ast.Program, snap interp.Snapshot) *Discrepancy {
	cfg := cp.cfg
	want, err := in.Run(prog, snap)
	if err != nil {
		return &Discrepancy{Kind: KindCompileError, Detail: fmt.Sprintf("interpreter rejected input %s: %v", snap, err)}
	}
	for i, f := range cfg.Fields {
		cp.fv[i] = snap.Pkt[f]
	}
	for i, s := range cfg.States {
		cp.sv[i] = snap.State[s]
	}
	cfg.ExecInto(cp.scratch, cp.fv, cp.sv)
	for i, f := range cfg.Fields {
		if cp.fv[i] != want.Pkt[f] {
			return &Discrepancy{
				Kind: KindConfigMismatch,
				Detail: fmt.Sprintf("width %d input %s: config pkt.%s = %d, interpreter says %d",
					cfg.Grid.WordWidth, snap, f, cp.fv[i], want.Pkt[f]),
			}
		}
	}
	for i, s := range cfg.States {
		if cp.sv[i] != want.State[s] {
			return &Discrepancy{
				Kind: KindConfigMismatch,
				Detail: fmt.Sprintf("width %d input %s: config state %s = %d, interpreter says %d",
					cfg.Grid.WordWidth, snap, s, cp.sv[i], want.State[s]),
			}
		}
	}
	return nil
}

// sweepExhaustive enumerates every (packet, state) input at the config's
// width via an odometer over the config's variables.
func sweepExhaustive(prog *ast.Program, cfg *pisa.Config) *Discrepancy {
	w := cfg.Grid.WordWidth
	in := interp.MustNew(w)
	cp := newConfigProbe(cfg)
	names := append(append([]string{}, cfg.Fields...), cfg.States...)
	counts := make([]uint64, len(names))
	size := w.Size()
	for {
		snap := interp.NewSnapshot()
		for i, f := range cfg.Fields {
			snap.Pkt[f] = counts[i]
		}
		for i, s := range cfg.States {
			snap.State[s] = counts[len(cfg.Fields)+i]
		}
		if d := cp.compareAt(in, prog, snap); d != nil {
			return d
		}
		i := 0
		for ; i < len(counts); i++ {
			counts[i]++
			if counts[i] < size {
				break
			}
			counts[i] = 0
		}
		if i == len(counts) {
			return nil
		}
	}
}

// randomEquivalent compares two programs on random inputs at the CEGIS
// verification width, returning a mutant-inequivalence discrepancy on the
// first disagreement.
func randomEquivalent(a, b *ast.Program, seed int64) *Discrepancy {
	const w = word.Width(10) // cegis.DefaultVerifyWidth without the import
	va, vb := a.Variables(), b.Variables()
	fields := append(append([]string{}, va.Fields...), vb.Fields...)
	states := append(append([]string{}, va.States...), vb.States...)
	in := interp.MustNew(w)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 64; trial++ {
		snap := interp.NewSnapshot()
		for _, f := range fields {
			snap.Pkt[f] = w.Trunc(rng.Uint64())
		}
		for _, s := range states {
			snap.State[s] = w.Trunc(rng.Uint64())
		}
		ra, err := in.Run(a, snap)
		if err != nil {
			return &Discrepancy{Kind: KindMutantInequiv, Detail: err.Error()}
		}
		rb, err := in.Run(b, snap)
		if err != nil {
			return &Discrepancy{Kind: KindMutantInequiv, Detail: err.Error()}
		}
		if !ra.Equal(rb, va.Fields, va.States) {
			return &Discrepancy{
				Kind:   KindMutantInequiv,
				Detail: fmt.Sprintf("programs differ at width %d input %s:\n%s\nvs\n%s", w, snap, a.Print(), b.Print()),
			}
		}
	}
	return nil
}

// probeRandom samples n random inputs at the config's width.
func probeRandom(prog *ast.Program, cfg *pisa.Config, rng *rand.Rand, n int) *Discrepancy {
	w := cfg.Grid.WordWidth
	in := interp.MustNew(w)
	cp := newConfigProbe(cfg)
	for trial := 0; trial < n; trial++ {
		snap := interp.NewSnapshot()
		for _, f := range cfg.Fields {
			snap.Pkt[f] = w.Trunc(rng.Uint64())
		}
		for _, s := range cfg.States {
			snap.State[s] = w.Trunc(rng.Uint64())
		}
		if d := cp.compareAt(in, prog, snap); d != nil {
			return d
		}
	}
	return nil
}

// CheckEngineEquivalence is the differential oracle for the line-rate
// subsystem: the compiled engine (internal/linerate) must agree with the
// interpreted datapath (Config.ExecInto) input-for-input. Like
// CheckConfigEquivalence it enumerates the full input space at a small
// width when the space fits the bit budget, then fires random probes at
// the configuration's own width — but both sides here are allocation-free,
// so the probe count can be orders of magnitude higher at the same time
// budget.
func CheckEngineEquivalence(cfg *pisa.Config, seed int64, probes int) *Discrepancy {
	nVars := len(cfg.Fields) + len(cfg.States)
	if int(exhaustiveCheckWidth)*nVars <= exhaustiveBitBudget {
		small := *cfg
		small.Grid.WordWidth = exhaustiveCheckWidth
		if d := engineSweep(&small, nil, 0); d != nil {
			return d
		}
	}
	rng := rand.New(rand.NewSource(seed))
	return engineSweep(cfg, rng, probes)
}

// engineSweep drives both execution paths over the same inputs: an
// exhaustive odometer when rng is nil, otherwise n random probes.
func engineSweep(cfg *pisa.Config, rng *rand.Rand, n int) *Discrepancy {
	eng, err := linerate.Compile(cfg)
	if err != nil {
		return &Discrepancy{Kind: KindEngineMismatch, Detail: fmt.Sprintf("engine compile failed: %v", err)}
	}
	w := cfg.Grid.WordWidth
	scratch := cfg.NewScratch()
	buf := eng.NewBuf()
	nf, ns := len(cfg.Fields), len(cfg.States)
	in := make([]uint64, nf+ns)
	ref := make([]uint64, nf+ns)
	got := make([]uint64, nf+ns)
	size := w.Size()
	for trial := 0; ; trial++ {
		if rng != nil {
			if trial == n {
				return nil
			}
			for i := range in {
				in[i] = w.Trunc(rng.Uint64())
			}
		}
		copy(ref, in)
		copy(got, in)
		cfg.ExecInto(scratch, ref[:nf], ref[nf:])
		eng.ExecInto(buf, got[:nf], got[nf:])
		for i := range ref {
			if got[i] != ref[i] {
				var name string
				if i < nf {
					name = "pkt." + cfg.Fields[i]
				} else {
					name = "state " + cfg.States[i-nf]
				}
				return &Discrepancy{
					Kind: KindEngineMismatch,
					Detail: fmt.Sprintf("width %d input %v: engine %s = %d, interpreter says %d",
						w, in, name, got[i], ref[i]),
				}
			}
		}
		if rng == nil {
			i := 0
			for ; i < len(in); i++ {
				in[i]++
				if in[i] < size {
					break
				}
				in[i] = 0
			}
			if i == len(in) {
				return nil
			}
		}
	}
}
