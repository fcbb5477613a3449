package cegis

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/alu"
	"repro/internal/ast"
	"repro/internal/circuit"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/pisa"
	"repro/internal/sat"
	"repro/internal/word"
)

func grid(stages, width int, kind alu.Kind, constBits int) pisa.GridSpec {
	return pisa.GridSpec{
		Stages:       stages,
		Width:        width,
		WordWidth:    10,
		StatelessALU: alu.Stateless{ConstBits: constBits},
		StatefulALU:  alu.Stateful{Kind: kind, ConstBits: constBits},
	}
}

func synth(t *testing.T, src string, g pisa.GridSpec, opts Options) *Result {
	t.Helper()
	prog := parser.MustParse("test", src)
	res, err := Synthesize(context.Background(), prog, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStatelessIncrement(t *testing.T) {
	res := synth(t, "pkt.a = pkt.a + 1;", grid(1, 1, alu.Counter, 4), Options{Seed: 1})
	if !res.Feasible {
		t.Fatal("increment should fit a 1x1 grid")
	}
	outPkt, _ := res.Config.Exec(map[string]uint64{"a": 41}, nil)
	if outPkt["a"] != 42 {
		t.Fatalf("a = %d, want 42", outPkt["a"])
	}
}

func TestTwoFieldSwapNeedsWidth2(t *testing.T) {
	src := "pkt.tmp = pkt.a; pkt.a = pkt.b; pkt.b = pkt.tmp;"
	// Three fields cannot fit two containers: immediate infeasibility.
	res := synth(t, src, grid(2, 2, alu.Counter, 4), Options{Seed: 1})
	if res.Feasible || res.Iters != 0 {
		t.Fatal("3 fields in 2 containers must be rejected without search")
	}
	// With three containers it fits.
	res = synth(t, src, grid(1, 3, alu.Counter, 4), Options{Seed: 1})
	if !res.Feasible {
		t.Fatal("swap should fit a 1x3 grid")
	}
	outPkt, _ := res.Config.Exec(map[string]uint64{"a": 5, "b": 9, "tmp": 0}, nil)
	if outPkt["a"] != 9 || outPkt["b"] != 5 || outPkt["tmp"] != 5 {
		t.Fatalf("swap result %v", outPkt)
	}
}

func TestInfeasibleProgramRejected(t *testing.T) {
	// Multiplication of two packet fields is beyond both ALU types.
	res := synth(t, "pkt.a = pkt.a * pkt.b;", grid(1, 2, alu.Counter, 4), Options{Seed: 1})
	if res.Feasible {
		t.Fatal("field*field should be infeasible on this hardware")
	}
	if res.TimedOut {
		t.Fatal("should be proven infeasible, not timed out")
	}
}

func TestStatefulCounter(t *testing.T) {
	// The appendix's counter ALU can add a constant to state; the packet
	// field must simultaneously pass through untouched.
	res := synth(t, "total = total + 2;", grid(1, 1, alu.Counter, 4), Options{Seed: 3})
	if !res.Feasible {
		t.Fatal("constant counter should fit the counter ALU")
	}
	state := map[string]uint64{"total": 0}
	var pkt map[string]uint64
	for i := 0; i < 5; i++ {
		pkt, state = res.Config.Exec(map[string]uint64{"v": 7}, state)
		if pkt["v"] != 7 {
			t.Fatalf("packet field clobbered: %v", pkt)
		}
	}
	if state["total"] != 10 {
		t.Fatalf("total = %d, want 10", state["total"])
	}
}

func TestStatefulAccumulatorNeedsPredRaw(t *testing.T) {
	// total += pkt.v exceeds the counter ALU (which only adds constants)
	// but fits pred_raw, whose update operand can be the packet.
	src := "total = total + pkt.v;"
	res := synth(t, src, grid(1, 1, alu.Counter, 4), Options{Seed: 3})
	if res.Feasible {
		t.Fatal("counter ALU cannot add a packet value to state")
	}
	res = synth(t, src, grid(1, 1, alu.PredRaw, 4), Options{Seed: 3})
	if !res.Feasible {
		t.Fatal("accumulator should fit pred_raw")
	}
	state := map[string]uint64{"total": 0}
	for i := uint64(1); i <= 5; i++ {
		_, state = res.Config.Exec(map[string]uint64{"v": i}, state)
	}
	if state["total"] != 15 {
		t.Fatalf("total = %d, want 15", state["total"])
	}
}

func TestSamplingEndToEnd(t *testing.T) {
	src := `
int count = 0;
if (count == 10) { count = 0; pkt.sample = 1; }
else { count = count + 1; pkt.sample = 0; }
`
	res := synth(t, src, grid(1, 2, alu.IfElseRaw, 4), Options{Seed: 1})
	if !res.Feasible {
		t.Fatal("sampling should fit one stage with if_else_raw")
	}
	state := map[string]uint64{"count": 0}
	samples := 0
	for i := 0; i < 33; i++ {
		var pkt map[string]uint64
		pkt, state = res.Config.Exec(map[string]uint64{"sample": 0}, state)
		if pkt["sample"] == 1 {
			samples++
		}
	}
	if samples != 3 {
		t.Fatalf("sampled %d of 33, want 3", samples)
	}
}

// TestCounterexampleLoopConverges uses a program whose constant (20)
// exceeds the synthesis width's value range, so narrow-width synthesis
// cannot pin it down and verification counterexamples must drive
// convergence (the §3.1 outer loop).
func TestCounterexampleLoopConverges(t *testing.T) {
	src := "pkt.hit = pkt.a == 20;"
	var events []Event
	res := synth(t, src, grid(1, 2, alu.Counter, 5), Options{
		Seed:       5,
		SynthWidth: 4, // 20 wraps to 4 at this width: ambiguous constants
		Trace:      func(e Event) { events = append(events, e) },
	})
	if !res.Feasible {
		t.Fatal("equality test should be feasible")
	}
	outPkt, _ := res.Config.Exec(map[string]uint64{"a": 20, "hit": 9}, nil)
	if outPkt["hit"] != 1 {
		t.Fatalf("hit = %d, want 1", outPkt["hit"])
	}
	outPkt, _ = res.Config.Exec(map[string]uint64{"a": 4, "hit": 9}, nil)
	if outPkt["hit"] != 0 {
		t.Fatalf("hit(4) = %d, want 0 — synthesized constant wrapped", outPkt["hit"])
	}
	// The trace must show at least one verify-phase counterexample.
	cexs := 0
	for _, e := range events {
		if e.Phase == "verify" && e.Outcome == "sat" {
			cexs++
			if e.Counterexample == nil {
				t.Fatal("verify/sat event missing counterexample")
			}
		}
	}
	if cexs == 0 {
		t.Fatal("expected at least one counterexample at synth width 4")
	}
	if res.Tests <= 3 {
		t.Fatalf("tests = %d; counterexamples should have grown the set", res.Tests)
	}
}

// TestNarrowSynthWidthIsClamped checks the MinWidth safeguard: asking for a
// 2-bit synthesis width must not mis-synthesize or spuriously reject —
// control holes would alias below 4 bits, so the engine clamps.
func TestNarrowSynthWidthIsClamped(t *testing.T) {
	res := synth(t, "pkt.hit = pkt.a == 10;", grid(1, 2, alu.Counter, 4), Options{
		Seed:       5,
		SynthWidth: 2,
	})
	if !res.Feasible {
		t.Fatal("clamped narrow synthesis should still succeed")
	}
	outPkt, _ := res.Config.Exec(map[string]uint64{"a": 10, "hit": 0}, nil)
	if outPkt["hit"] != 1 {
		t.Fatalf("hit = %d, want 1", outPkt["hit"])
	}
}

func TestTimeoutReported(t *testing.T) {
	// An already-expired context must yield TimedOut, not an error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prog := parser.MustParse("t", "pkt.a = pkt.a + 1;")
	res, err := Synthesize(ctx, prog, grid(1, 1, alu.Counter, 4), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut || res.Feasible {
		t.Fatalf("expired context: TimedOut=%v Feasible=%v", res.TimedOut, res.Feasible)
	}
}

func TestIndicatorAllocationMode(t *testing.T) {
	// The indicator-variable allocation (Figure 4, left) must synthesize
	// the same programs as canonical allocation.
	src := "pkt.b = pkt.a + pkt.b;"
	res := synth(t, src, grid(1, 2, alu.Counter, 4), Options{Seed: 2, IndicatorAlloc: true})
	if !res.Feasible {
		t.Fatal("indicator allocation should also fit")
	}
	if res.Config.Values.FieldAlloc == nil {
		t.Fatal("indicator mode must populate the allocation matrix")
	}
	if err := res.Config.Validate(); err != nil {
		t.Fatal(err)
	}
	outPkt, _ := res.Config.Exec(map[string]uint64{"a": 3, "b": 4}, nil)
	if outPkt["b"] != 7 || outPkt["a"] != 3 {
		t.Fatalf("got %v", outPkt)
	}
}

func TestIndicatorVsCanonicalSearchSpace(t *testing.T) {
	// Figure 4's point: canonicalization removes indicator holes.
	prog := parser.MustParse("t", "pkt.b = pkt.a + pkt.b;")
	g := grid(1, 2, alu.Counter, 4)
	canon, err := Synthesize(context.Background(), prog, g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	indic, err := Synthesize(context.Background(), prog, g, Options{Seed: 2, IndicatorAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	if indic.HoleBits <= canon.HoleBits {
		t.Fatalf("indicator mode should have more hole bits: %d vs %d", indic.HoleBits, canon.HoleBits)
	}
}

func TestConfigWidthIndependence(t *testing.T) {
	// A verified configuration must run correctly at widths below the
	// verification width too (hole values are width-independent).
	res := synth(t, "pkt.a = pkt.a + 3;", grid(1, 1, alu.Counter, 4), Options{Seed: 4})
	if !res.Feasible {
		t.Fatal("feasible expected")
	}
	for _, w := range []word.Width{4, 6, 8, 10} {
		cfg := *res.Config
		cfg.Grid.WordWidth = w
		in := interp.MustNew(w)
		prog := parser.MustParse("t", "pkt.a = pkt.a + 3;")
		for a := uint64(0); a < 16; a++ {
			snap := interp.NewSnapshot()
			snap.Pkt["a"] = a
			want, err := in.Run(prog, snap)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := cfg.Exec(snap.Pkt, nil)
			if got["a"] != want.Pkt["a"] {
				t.Fatalf("width %d a=%d: got %d want %d", w, a, got["a"], want.Pkt["a"])
			}
		}
	}
}

func TestCanonicalVars(t *testing.T) {
	prog := parser.MustParse("t", "z = pkt.q + y; pkt.b = z;")
	fields, states := CanonicalVars(prog)
	if len(fields) != 2 || fields[0] != "b" || fields[1] != "q" {
		t.Fatalf("fields = %v", fields)
	}
	if len(states) != 2 || states[0] != "y" || states[1] != "z" {
		t.Fatalf("states = %v", states)
	}
}

func TestOpcodeMaskRestriction(t *testing.T) {
	// With an arithmetic-only stateless ALU, a bitwise program must be
	// infeasible (the §3.1 opcode-restriction heuristic's failure side).
	g := grid(1, 2, alu.Counter, 4)
	g.StatelessALU.OpcodeMask = alu.ArithOnlyMask
	res := synth(t, "pkt.a = pkt.a ^ pkt.b;", g, Options{Seed: 1})
	if res.Feasible {
		t.Fatal("xor should be infeasible under the arithmetic-only mask")
	}
	// But an arithmetic program still compiles.
	res = synth(t, "pkt.a = pkt.a + pkt.b;", g, Options{Seed: 1})
	if !res.Feasible {
		t.Fatal("add should remain feasible under the mask")
	}
}

// --- Figure 1: syntax-guided synthesis on the paper's opening example ------

// figure1Synthesize runs a minimal CEGIS directly over the circuit and SAT
// substrates for the sketch "x << ??(2) [+ x]": the paper's Figure 1.
// It returns (feasible, holeValue).
func figure1Synthesize(t *testing.T, withPlusX bool) (bool, uint64) {
	t.Helper()
	const w = word.Width(8)
	b := circuit.New()
	hole := b.InputWord(2) // ??(2): a 2-bit hole

	synthSolver := sat.New()
	synthCNF := circuit.NewCNF(b, synthSolver)

	build := func(xv circuit.Word) circuit.Word {
		wide := make(circuit.Word, w)
		copy(wide, hole)
		for i := 2; i < int(w); i++ {
			wide[i] = circuit.False
		}
		out := b.ShlW(xv, wide)
		if withPlusX {
			out = b.AddW(out, xv)
		}
		return out
	}
	spec := func(x uint64) uint64 { return w.Mul(x, 5) }

	addTest := func(x uint64) {
		out := build(b.ConstWord(x, w))
		synthCNF.Assert(b.EqW(out, b.ConstWord(spec(x), w)))
	}
	addTest(1) // initial test input

	for iter := 0; iter < 20; iter++ {
		if synthSolver.Solve() != sat.Sat {
			return false, 0
		}
		h := synthCNF.WordValue(hole)
		// Verify exhaustively at width 8.
		cex := uint64(0)
		found := false
		for x := uint64(0); x < w.Size(); x++ {
			got := w.Shl(x, h)
			if withPlusX {
				got = w.Add(got, x)
			}
			if got != spec(x) {
				cex, found = x, true
				break
			}
		}
		if !found {
			return true, h
		}
		addTest(cex)
	}
	t.Fatal("figure 1 CEGIS did not converge")
	return false, 0
}

func TestFigure1FeasibleSketch(t *testing.T) {
	ok, h := figure1Synthesize(t, true)
	if !ok {
		t.Fatal("sketch1 (x<<h + x) should be feasible for spec x*5")
	}
	if h != 2 {
		t.Fatalf("hole = %d, want 2 (x<<2 + x == 5x)", h)
	}
}

func TestFigure1InfeasibleSketch(t *testing.T) {
	ok, _ := figure1Synthesize(t, false)
	if ok {
		t.Fatal("sketch2 (x<<h) cannot implement x*5: no power of two equals 5")
	}
}

func TestSynthesisIsDeterministic(t *testing.T) {
	src := "pkt.a = pkt.a + 1;"
	g := grid(1, 1, alu.Counter, 4)
	a := synth(t, src, g, Options{Seed: 11})
	b := synth(t, src, g, Options{Seed: 11})
	if a.Iters != b.Iters || a.Tests != b.Tests {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d iters/tests", a.Iters, a.Tests, b.Iters, b.Tests)
	}
}

func TestStateCapacityPrecheck(t *testing.T) {
	src := "s1 = s1 + 1; s2 = s2 + 1;"
	res := synth(t, src, grid(2, 1, alu.Counter, 4), Options{Seed: 1})
	if res.Feasible {
		t.Fatal("2 states into a width-1 counter grid should be infeasible")
	}
	if res.Iters != 0 {
		t.Fatal("capacity violation should be rejected before search")
	}
}

func TestTraceEventsWellFormed(t *testing.T) {
	var events []Event
	synth(t, "pkt.a = pkt.a + 1;", grid(1, 1, alu.Counter, 4), Options{
		Seed:  1,
		Trace: func(e Event) { events = append(events, e) },
	})
	if len(events) < 2 {
		t.Fatalf("expected synth+verify events, got %d", len(events))
	}
	for i, e := range events {
		if e.Phase != "synth" && e.Phase != "verify" {
			t.Fatalf("event %d has phase %q", i, e.Phase)
		}
		if e.Iter < 1 {
			t.Fatalf("event %d has iter %d", i, e.Iter)
		}
	}
	last := events[len(events)-1]
	if last.Phase != "verify" || last.Outcome != "unsat" {
		t.Fatalf("final event should be verify/unsat, got %s/%s", last.Phase, last.Outcome)
	}
}

func TestContextCancelMidSearch(t *testing.T) {
	// A very short timeout on a harder problem must return TimedOut
	// promptly rather than hanging.
	src := `
int last_time = 0;
int saved_hop = 0;
if (pkt.arrival - last_time > 5) { saved_hop = pkt.new_hop; }
pkt.next_hop = saved_hop;
last_time = pkt.arrival;
`
	ctx, cancel := context.WithTimeout(context.Background(), 1*time.Millisecond)
	defer cancel()
	prog := parser.MustParse("flowlet", src)
	start := time.Now()
	res, err := Synthesize(ctx, prog, grid(2, 3, alu.Pair, 4), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		// On a very fast machine the solve might legitimately finish;
		// only fail if it neither finished nor reported timeout.
		if !res.Feasible {
			t.Fatal("expected TimedOut or Feasible")
		}
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestHarnessEquivalenceOnAllInputs spot-checks the paper's Appendix A
// harness property on a synthesized config: pipeline(x) == program(x) for
// every input at a small exhaustive width.
func TestHarnessEquivalenceOnAllInputs(t *testing.T) {
	src := `
int seen = 0;
if (seen == 0) { pkt.new_flow = 1; seen = 1; }
else { pkt.new_flow = 0; }
`
	res := synth(t, src, grid(1, 2, alu.PredRaw, 4), Options{Seed: 9})
	if !res.Feasible {
		t.Fatal("new-flow should be feasible")
	}
	prog := parser.MustParse("t", src)
	const w = word.Width(6)
	cfg := *res.Config
	cfg.Grid.WordWidth = w
	in := interp.MustNew(w)
	for f := uint64(0); f < w.Size(); f++ {
		for s := uint64(0); s < w.Size(); s++ {
			snap := interp.NewSnapshot()
			snap.Pkt["new_flow"] = f
			snap.State["seen"] = s
			want, err := in.Run(prog, snap)
			if err != nil {
				t.Fatal(err)
			}
			gotPkt, gotState := cfg.Exec(snap.Pkt, snap.State)
			if gotPkt["new_flow"] != want.Pkt["new_flow"] || gotState["seen"] != want.State["seen"] {
				t.Fatalf("input (%d,%d): got (%d,%d) want (%d,%d)",
					f, s, gotPkt["new_flow"], gotState["seen"],
					want.Pkt["new_flow"], want.State["seen"])
			}
		}
	}
}

func TestUnknownExpressionTypeErrors(t *testing.T) {
	prog := &ast.Program{Name: "bad", Stmts: []ast.Stmt{
		&ast.Assign{LHS: ast.LValue{Name: "a", IsField: true}, RHS: nil},
	}, Init: map[string]int64{}}
	_, err := Synthesize(context.Background(), prog, grid(1, 1, alu.Counter, 4), Options{Seed: 1})
	if err == nil {
		t.Fatal("nil expression should surface an error")
	}
}

// TestObservabilityAgreement runs one synthesis with every telemetry sink
// attached and checks the three views agree: Trace event deltas sum to the
// Result's cumulative totals, the metrics registry's counters match the
// same sums, and the span trace is well-formed with the documented
// hierarchy.
func TestObservabilityAgreement(t *testing.T) {
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	ctx := obs.ContextWithMetrics(obs.ContextWithTracer(context.Background(), tr), reg)

	var events []Event
	prog := parser.MustParse("test", `
int count = 0;
if (count == 10) { count = 0; pkt.sample = 1; }
else { count = count + 1; pkt.sample = 0; }
`)
	res, err := Synthesize(ctx, prog, grid(1, 2, alu.IfElseRaw, 4), Options{
		Seed:  7,
		Trace: func(e Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("program should be feasible")
	}

	var evSynth, evVerify, evDecisions, evPropagations int64
	for _, e := range events {
		evSynth += e.SynthConflicts
		evVerify += e.VerifyConflicts
		evDecisions += e.Decisions
		evPropagations += e.Propagations
		if e.Conflicts() != e.SynthConflicts+e.VerifyConflicts {
			t.Fatalf("Conflicts() inconsistent: %+v", e)
		}
	}
	if evSynth != res.SynthConflicts {
		t.Fatalf("event synth conflict deltas sum to %d, Result says %d", evSynth, res.SynthConflicts)
	}
	if evVerify != res.VerifyConflicts {
		t.Fatalf("event verify conflict deltas sum to %d, Result says %d", evVerify, res.VerifyConflicts)
	}
	if evDecisions != res.Decisions || evPropagations != res.Propagations {
		t.Fatalf("event effort (%d dec, %d prop) != Result (%d, %d)",
			evDecisions, evPropagations, res.Decisions, res.Propagations)
	}

	// Registry counters are built from the same per-solve deltas.
	if got := reg.Counter("sat.conflicts").Value(); got != res.SynthConflicts+res.VerifyConflicts {
		t.Fatalf("registry sat.conflicts = %d, want %d", got, res.SynthConflicts+res.VerifyConflicts)
	}
	if got := reg.Counter("sat.decisions").Value(); got != res.Decisions {
		t.Fatalf("registry sat.decisions = %d, want %d", got, res.Decisions)
	}
	if got := reg.Counter("cegis.iterations").Value(); got != int64(res.Iters) {
		t.Fatalf("registry cegis.iterations = %d, want %d", got, res.Iters)
	}
	if got := reg.Counter("cegis.tests").Value(); got != int64(res.Tests) {
		t.Fatalf("registry cegis.tests = %d, want %d", got, res.Tests)
	}
	if got := reg.Gauge("sketch.hole_bits").Value(); got != int64(res.HoleBits) {
		t.Fatalf("registry sketch.hole_bits = %d, want %d", got, res.HoleBits)
	}
	if reg.Gauge("cnf.vars").Value() != int64(res.PeakCNFVars) {
		t.Fatalf("registry cnf.vars = %d, want %d", reg.Gauge("cnf.vars").Value(), res.PeakCNFVars)
	}
	if res.PeakCNFVars == 0 || res.PeakCNFClauses == 0 || res.Gates == 0 {
		t.Fatalf("encoding sizes not recorded: %+v", res)
	}

	// The span trace nests cegis.iter → synth/verify → sat.solve.
	recs := tr.Records()
	if err := obs.CheckWellFormed(recs); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, r := range recs {
		if r.Type == obs.RecordStart {
			names[r.Name]++
		}
	}
	if names["cegis.iter"] != res.Iters {
		t.Fatalf("%d cegis.iter spans for %d iterations", names["cegis.iter"], res.Iters)
	}
	if names["synth"] == 0 || names["verify"] == 0 {
		t.Fatalf("missing phase spans: %v", names)
	}
	if names["sat.solve"] != names["synth"]+names["verify"] {
		t.Fatalf("each phase should contain one sat.solve: %v", names)
	}
}

func TestProgressCallbackDuringSynthesis(t *testing.T) {
	// A harder program reliably exceeds one progress interval only with a
	// tiny interval; the exported knob is fixed, so just check the wiring
	// does not fire for trivial solves and never reports a phase outside
	// the two CEGIS phases.
	phases := map[string]bool{}
	synth(t, "pkt.a = pkt.a + 1;", grid(1, 1, alu.Counter, 4), Options{
		Seed:     1,
		Progress: func(phase string, st sat.Stats) { phases[phase] = true },
	})
	for p := range phases {
		if p != "synth" && p != "verify" {
			t.Fatalf("unexpected progress phase %q", p)
		}
	}
}

// TestDefaultTierWidths pins the zero-value Options accessors to the
// exported defaults the solution cache folds into its content address;
// changing either constant requires a solcache.FormatVersion bump.
func TestDefaultTierWidths(t *testing.T) {
	var o Options
	if got := o.synthWidth(); got != DefaultSynthWidth {
		t.Errorf("zero-value synth width = %d, want DefaultSynthWidth (%d)", got, DefaultSynthWidth)
	}
	if got := o.verifyWidth(); got != DefaultVerifyWidth {
		t.Errorf("zero-value verify width = %d, want DefaultVerifyWidth (%d)", got, DefaultVerifyWidth)
	}
}

// TestNonzeroInitStateFeasible is the minimized regression for a bug found
// by the chipfuzz campaign: the initial all-zeros seed test left state
// entries out of the snapshot, so the interpreter seeded them from Init
// while the datapath side read 0, producing a contradictory constraint
// (pipeline(0) == spec(Init)) that made any program with a nonzero state
// initializer "infeasible" within one counterexample round.
func TestNonzeroInitStateFeasible(t *testing.T) {
	// The reproducers live in testdata/ as chipfuzz shrank them.
	cases := []struct {
		file string
		kind alu.Kind
	}{
		{"nonzero_init_identity.domino", alu.Counter},
		{"nonzero_init_counter.domino", alu.Counter},
		{"nonzero_init_guarded.domino", alu.IfElseRaw},
	}
	for _, tc := range cases {
		raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		src := string(raw)
		res := synth(t, src, grid(1, 1, tc.kind, 4), Options{Seed: 1})
		if !res.Feasible {
			t.Fatalf("%s: infeasible, but Init must not affect the transfer function", tc.file)
		}
		// The synthesized config must implement the transfer function for
		// arbitrary state inputs, not just the initializer.
		for s0 := uint64(0); s0 < 8; s0++ {
			in := interp.MustNew(word.Width(10))
			prog := parser.MustParse("t", src)
			snap := interp.NewSnapshot()
			snap.State["s"] = s0
			want, err := in.Run(prog, snap)
			if err != nil {
				t.Fatal(err)
			}
			_, state := res.Config.Exec(nil, map[string]uint64{"s": s0})
			if state["s"] != want.State["s"] {
				t.Fatalf("%q: config(s=%d) = %d, interpreter says %d", src, s0, state["s"], want.State["s"])
			}
		}
	}
}
