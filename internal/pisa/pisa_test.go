package pisa

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alu"
	"repro/internal/arith"
	"repro/internal/circuit"
	"repro/internal/word"
)

func testGrid(stages, width int, kind alu.Kind) GridSpec {
	return GridSpec{
		Stages:       stages,
		Width:        width,
		WordWidth:    5,
		StatelessALU: alu.Stateless{},
		StatefulALU:  alu.Stateful{Kind: kind},
	}
}

// randomConfig fills every hole with a random in-range value and activates
// each used state slot in exactly one random stage.
func randomConfig(rng *rand.Rand, g GridSpec, fields, states []string) *Config {
	holeBits := map[string]int{}
	h := NewHoles[uint64](g, false, len(fields), func(name string, bits int, data bool) uint64 {
		holeBits[name] = bits
		return rng.Uint64() & ((1 << uint(bits)) - 1)
	})
	// Rewrite SaluActive to satisfy the exactly-one-stage constraint.
	ns := g.StatefulALU.NumStates()
	usedSlots := (len(states) + ns - 1) / ns
	for j := 0; j < g.Width; j++ {
		for i := 0; i < g.Stages; i++ {
			h.SaluActive[i][j] = 0
		}
		if j < usedSlots {
			h.SaluActive[rng.Intn(g.Stages)][j] = 1
		}
	}
	return &Config{Grid: g, Fields: fields, States: states, Values: h}
}

func TestGridSpecValidate(t *testing.T) {
	if err := testGrid(2, 2, alu.IfElseRaw).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (GridSpec{Stages: 0, Width: 2, WordWidth: 5}).Validate(); err == nil {
		t.Fatal("0 stages should fail")
	}
	if err := (GridSpec{Stages: 1, Width: 0, WordWidth: 5}).Validate(); err == nil {
		t.Fatal("0 width should fail")
	}
	if err := (GridSpec{Stages: 1, Width: 1, WordWidth: 0}).Validate(); err == nil {
		t.Fatal("0 word width should fail")
	}
}

func TestMuxBits(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4}
	for n, want := range cases {
		if got := MuxBits(n); got != want {
			t.Errorf("MuxBits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestStateSlots(t *testing.T) {
	if got := testGrid(2, 3, alu.Counter).StateSlots(); got != 3 {
		t.Fatalf("counter slots = %d, want 3", got)
	}
	if got := testGrid(2, 3, alu.Pair).StateSlots(); got != 6 {
		t.Fatalf("pair slots = %d, want 6", got)
	}
}

// TestDatapathSymbolicMatchesConcrete is the package's core soundness
// property: instantiating the datapath with circuit words and evaluating
// the circuit equals executing it concretely, for random configurations,
// inputs, and every stateful ALU kind.
func TestDatapathSymbolicMatchesConcrete(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, kind := range []alu.Kind{alu.Counter, alu.PredRaw, alu.IfElseRaw, alu.Sub, alu.NestedIfs, alu.Pair} {
		g := testGrid(2, 2, kind)
		w := g.WordWidth
		fields := []string{"f0", "f1"}
		states := []string{"s0"}

		// Build the symbolic datapath with input words for holes and data.
		b := circuit.New()
		circ := arith.Circ{B: b, W: w}
		holeInputs := map[string]circuit.Word{}
		symHoles := NewHoles[circuit.Word](g, false, len(fields), func(name string, bits int, data bool) circuit.Word {
			in := b.InputWord(word.Width(bits))
			holeInputs[name] = in
			wide := make(circuit.Word, w)
			copy(wide, in)
			for i := bits; i < int(w); i++ {
				wide[i] = circuit.False
			}
			return wide
		})
		symFields := []circuit.Word{b.InputWord(w), b.InputWord(w)}
		symStates := []circuit.Word{b.InputWord(w)}
		outF, outS := Datapath[circuit.Word](circ, g, symHoles, symFields, symStates)

		for trial := 0; trial < 40; trial++ {
			cfg := randomConfig(rng, g, fields, states)
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			pkt := map[string]uint64{"f0": w.Trunc(rng.Uint64()), "f1": w.Trunc(rng.Uint64())}
			st := map[string]uint64{"s0": w.Trunc(rng.Uint64())}
			gotPkt, gotSt := cfg.Exec(pkt, st)

			// Evaluate the symbolic datapath under the same hole values.
			assign := map[circuit.Bit]bool{}
			assignHoles := func(m map[string]uint64, prefix string) {
				for k, v := range m {
					circuit.SetWordInputs(assign, holeInputs[prefix+k], v)
				}
			}
			for i := 0; i < g.Stages; i++ {
				for j := 0; j < g.Width; j++ {
					assignHoles(cfg.Values.Stateless[i][j], sprintfName("stateless", i, j))
					assignHoles(cfg.Values.Stateful[i][j], sprintfName("stateful", i, j))
					circuit.SetWordInputs(assign, holeInputs[sprintfOmux(i, j)], cfg.Values.OMux[i][j])
					circuit.SetWordInputs(assign, holeInputs[sprintfSalu(i, j)], cfg.Values.SaluActive[i][j])
				}
			}
			circuit.SetWordInputs(assign, symFields[0], pkt["f0"])
			circuit.SetWordInputs(assign, symFields[1], pkt["f1"])
			circuit.SetWordInputs(assign, symStates[0], st["s0"])

			if got := b.EvalWord(assign, outF[0]); got != gotPkt["f0"] {
				t.Fatalf("%s trial %d: f0 circuit=%d concrete=%d", kind, trial, got, gotPkt["f0"])
			}
			if got := b.EvalWord(assign, outF[1]); got != gotPkt["f1"] {
				t.Fatalf("%s trial %d: f1 circuit=%d concrete=%d", kind, trial, got, gotPkt["f1"])
			}
			if got := b.EvalWord(assign, outS[0]); got != gotSt["s0"] {
				t.Fatalf("%s trial %d: s0 circuit=%d concrete=%d", kind, trial, got, gotSt["s0"])
			}
		}
	}
}

func sprintfName(prefix string, i, j int) string {
	return prefix + "_" + itoa(i) + "_" + itoa(j) + "_"
}
func sprintfOmux(i, j int) string { return "omux_" + itoa(i) + "_" + itoa(j) }
func sprintfSalu(i, j int) string { return "salu_active_" + itoa(i) + "_" + itoa(j) }
func itoa(n int) string           { return string(rune('0' + n)) }

// TestHandBuiltIncrementConfig wires a 1x1 grid whose stateless path adds an
// immediate to the only field and checks Exec end to end.
func TestHandBuiltIncrementConfig(t *testing.T) {
	g := testGrid(1, 1, alu.Counter)
	h := NewHoles[uint64](g, false, 1, func(string, int, bool) uint64 { return 0 })
	h.Stateless[0][0]["opcode"] = alu.SlOpAddImm
	h.Stateless[0][0]["imm"] = 3
	h.Stateless[0][0]["imux1"] = 0
	h.OMux[0][0] = 1 // width(1) == index 1 -> own stateless ALU
	cfg := &Config{Grid: g, Fields: []string{"x"}, States: nil, Values: h}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	outPkt, _ := cfg.Exec(map[string]uint64{"x": 30}, nil)
	if outPkt["x"] != 1 { // 30+3 mod 32 at width 5
		t.Fatalf("x = %d, want 1", outPkt["x"])
	}
}

// TestHandBuiltCounterConfig exercises a stateful counter across packets:
// state accumulates, and the old value is exported through the output mux.
func TestHandBuiltCounterConfig(t *testing.T) {
	g := testGrid(1, 1, alu.Counter)
	h := NewHoles[uint64](g, false, 1, func(string, int, bool) uint64 { return 0 })
	h.Stateful[0][0]["mode"] = 0  // state += const
	h.Stateful[0][0]["const"] = 2 //
	h.Stateful[0][0]["imux0"] = 0
	h.SaluActive[0][0] = 1
	h.OMux[0][0] = 0 // container <- stateful ALU output (old state)
	cfg := &Config{Grid: g, Fields: []string{"seen"}, States: []string{"cnt"}, Values: h}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	state := map[string]uint64{"cnt": 0}
	for i := 0; i < 4; i++ {
		var pkt map[string]uint64
		pkt, state = cfg.Exec(map[string]uint64{"seen": 99}, state)
		if pkt["seen"] != uint64(2*i) {
			t.Fatalf("packet %d: seen=%d, want %d", i, pkt["seen"], 2*i)
		}
	}
	if state["cnt"] != 8 {
		t.Fatalf("cnt = %d, want 8", state["cnt"])
	}
}

func TestConfigValidateRejectsBadStateAllocation(t *testing.T) {
	g := testGrid(2, 1, alu.Counter)
	h := NewHoles[uint64](g, false, 0, func(string, int, bool) uint64 { return 0 })
	cfg := &Config{Grid: g, Fields: nil, States: []string{"s"}, Values: h}
	if err := cfg.Validate(); err == nil {
		t.Fatal("state never activated should fail validation")
	}
	h.SaluActive[0][0], h.SaluActive[1][0] = 1, 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("state active twice should fail validation")
	}
	h.SaluActive[1][0] = 0
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejectsOverflow(t *testing.T) {
	g := testGrid(1, 1, alu.Counter)
	h := NewHoles[uint64](g, false, 0, func(string, int, bool) uint64 { return 0 })
	cfg := &Config{Grid: g, Fields: []string{"a", "b"}, Values: h}
	if err := cfg.Validate(); err == nil {
		t.Fatal("2 fields into 1 container should fail")
	}
	cfg = &Config{Grid: g, Fields: nil, States: []string{"x", "y"}, Values: h}
	if err := cfg.Validate(); err == nil {
		t.Fatal("2 states into 1 slot should fail")
	}
}

func TestIndicatorAllocationValidation(t *testing.T) {
	g := testGrid(1, 2, alu.Counter)
	h := NewHoles[uint64](g, true, 2, func(string, int, bool) uint64 { return 0 })
	cfg := &Config{Grid: g, Fields: []string{"a", "b"}, Values: h}
	if err := cfg.Validate(); err == nil {
		t.Fatal("all-zero indicator matrix should fail")
	}
	h.FieldAlloc[0][0], h.FieldAlloc[1][1] = 1, 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Two fields in one container.
	h.FieldAlloc[1][1] = 0
	h.FieldAlloc[1][0] = 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("two fields sharing a container should fail")
	}
}

// TestIndicatorAllocationRouting checks the swapped allocation actually
// routes fields through swapped containers (Figure 4's premise).
func TestIndicatorAllocationRouting(t *testing.T) {
	g := testGrid(1, 2, alu.Counter)
	h := NewHoles[uint64](g, true, 2, func(string, int, bool) uint64 { return 0 })
	// Swap: field 0 -> container 1, field 1 -> container 0.
	h.FieldAlloc[0][1] = 1
	h.FieldAlloc[1][0] = 1
	// Identity datapath: each container passes itself through.
	for j := 0; j < 2; j++ {
		h.Stateless[0][j]["opcode"] = alu.SlOpPassA
		h.Stateless[0][j]["imux1"] = uint64(j)
		h.OMux[0][j] = 2 // own stateless output
	}
	cfg := &Config{Grid: g, Fields: []string{"a", "b"}, Values: h}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	outPkt, _ := cfg.Exec(map[string]uint64{"a": 3, "b": 9}, nil)
	if outPkt["a"] != 3 || outPkt["b"] != 9 {
		t.Fatalf("swapped allocation should still be the identity: %v", outPkt)
	}
}

func TestUsageAccounting(t *testing.T) {
	g := testGrid(3, 2, alu.Counter)
	h := NewHoles[uint64](g, false, 2, func(string, int, bool) uint64 { return 0 })
	// Make every stage a pass-through first.
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			h.Stateless[i][j]["opcode"] = alu.SlOpPassA
			h.Stateless[i][j]["imux1"] = uint64(j)
			h.OMux[i][j] = 2 // own stateless (pass-through)
		}
	}
	cfg := &Config{Grid: g, Fields: []string{"a", "b"}, Values: h}
	u := cfg.Usage()
	if u.Stages != 0 || u.MaxALUsPerStage != 0 || u.TotalALUs != 0 {
		t.Fatalf("pure pass-through should use nothing: %+v", u)
	}
	// Real work in stage 0 only.
	h.Stateless[0][0]["opcode"] = alu.SlOpAddImm
	u = cfg.Usage()
	if u.Stages != 1 || u.MaxALUsPerStage != 1 || u.TotalALUs != 1 {
		t.Fatalf("one ALU in stage 0: %+v", u)
	}
	// A stateful ALU active in stage 2 extends the used depth.
	h.SaluActive[2][1] = 1
	cfg.States = []string{"s"}
	// Move the state slot to slot 0 for validation simplicity? Slot 1 is
	// used here; validation requires slot 0 for 1 state. Skip validation
	// and just count.
	u = cfg.Usage()
	if u.Stages != 3 || u.TotalALUs != 2 {
		t.Fatalf("stateful in stage 2: %+v", u)
	}
}

func TestConfigJSONRoundtrip(t *testing.T) {
	g := testGrid(1, 2, alu.IfElseRaw)
	rng := rand.New(rand.NewSource(1))
	cfg := randomConfig(rng, g, []string{"a"}, []string{"s"})
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	pkt := map[string]uint64{"a": 7}
	st := map[string]uint64{"s": 3}
	p1, s1 := cfg.Exec(pkt, st)
	p2, s2 := back.Exec(pkt, st)
	if p1["a"] != p2["a"] || s1["s"] != s2["s"] {
		t.Fatal("JSON roundtrip changed behaviour")
	}
}

func TestConfigString(t *testing.T) {
	g := testGrid(1, 1, alu.Counter)
	h := NewHoles[uint64](g, false, 1, func(string, int, bool) uint64 { return 0 })
	h.SaluActive[0][0] = 1
	cfg := &Config{Grid: g, Fields: []string{"x"}, States: []string{"s"}, Values: h}
	s := cfg.String()
	for _, want := range []string{"stage 0", "stateless[0]", "stateful[0] (active)", "container[0]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestExecDoesNotMutateInputs(t *testing.T) {
	g := testGrid(1, 1, alu.Counter)
	h := NewHoles[uint64](g, false, 1, func(string, int, bool) uint64 { return 0 })
	h.Stateless[0][0]["opcode"] = alu.SlOpAddImm
	h.Stateless[0][0]["imm"] = 1
	h.OMux[0][0] = 1
	cfg := &Config{Grid: g, Fields: []string{"x"}, Values: h}
	pkt := map[string]uint64{"x": 5}
	st := map[string]uint64{}
	cfg.Exec(pkt, st)
	if pkt["x"] != 5 {
		t.Fatal("Exec mutated the input packet")
	}
}

// TestExecIntoMatchesExec pins the allocation-free concrete path to the
// generic Datapath across every stateful ALU template, canonical and
// indicator field allocation, and word widths both wider and narrower than
// the control holes (narrow widths exercise the truncating mux-selector
// aliasing ExecInto must reproduce bit for bit).
func TestExecIntoMatchesExec(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	allFields := []string{"a", "b", "c", "d"}
	kinds := []alu.Kind{alu.Counter, alu.PredRaw, alu.IfElseRaw, alu.Sub, alu.NestedIfs, alu.Pair}
	for _, kind := range kinds {
		for _, ww := range []int{2, 3, 5, 8} {
			for trial := 0; trial < 25; trial++ {
				g := testGrid(1+rng.Intn(3), 1+rng.Intn(3), kind)
				g.WordWidth = word.Width(ww)
				nf := rng.Intn(min(len(allFields), g.Width) + 1)
				fields := allFields[:nf]
				states := make([]string, rng.Intn(g.StateSlots()+1))
				for i := range states {
					states[i] = fmt.Sprintf("s%d", i)
				}
				cfg := randomConfig(rng, g, fields, states)
				if rng.Intn(2) == 0 && nf > 0 {
					// Indicator allocation: a random partial permutation.
					perm := rng.Perm(g.Width)
					cfg.Values.FieldAlloc = make([][]uint64, nf)
					for f := range cfg.Values.FieldAlloc {
						cfg.Values.FieldAlloc[f] = make([]uint64, g.Width)
						cfg.Values.FieldAlloc[f][perm[f]] = 1
					}
				}
				if err := cfg.Validate(); err != nil {
					t.Fatalf("%v/w%d: invalid fixture: %v", kind, ww, err)
				}
				scratch := cfg.NewScratch()
				fv := make([]uint64, len(fields))
				sv := make([]uint64, len(states))
				for probe := 0; probe < 20; probe++ {
					pkt := map[string]uint64{}
					st := map[string]uint64{}
					for i, f := range fields {
						fv[i] = rng.Uint64()
						pkt[f] = fv[i]
					}
					for i, s := range states {
						sv[i] = rng.Uint64()
						st[s] = sv[i]
					}
					outPkt, outSt := cfg.Exec(pkt, st)
					cfg.ExecInto(scratch, fv, sv)
					for i, f := range fields {
						if fv[i] != outPkt[f] {
							t.Fatalf("%v/w%d trial %d: field %s: ExecInto=%d Exec=%d\n%s",
								kind, ww, trial, f, fv[i], outPkt[f], cfg)
						}
					}
					for i, s := range states {
						if sv[i] != outSt[s] {
							t.Fatalf("%v/w%d trial %d: state %s: ExecInto=%d Exec=%d\n%s",
								kind, ww, trial, s, sv[i], outSt[s], cfg)
						}
					}
				}
			}
		}
	}
}

// TestExecIntoDoesNotAllocate is the contract the hot loops depend on.
func TestExecIntoDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testGrid(3, 2, alu.Pair)
	cfg := randomConfig(rng, g, []string{"a", "b"}, []string{"s0", "s1", "s2"})
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	scratch := cfg.NewScratch()
	fv := []uint64{5, 9}
	sv := []uint64{1, 2, 3}
	allocs := testing.AllocsPerRun(200, func() { cfg.ExecInto(scratch, fv, sv) })
	if allocs != 0 {
		t.Fatalf("ExecInto allocates %.1f objects per packet, want 0", allocs)
	}
}
