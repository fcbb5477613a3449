package alu

import (
	"math/rand"
	"testing"

	"repro/internal/arith"
	"repro/internal/circuit"
	"repro/internal/word"
)

// randHoles draws a concrete value for every hole, respecting its bit width.
func randHoles(rng *rand.Rand, defs []HoleDef) map[string]uint64 {
	h := map[string]uint64{}
	for _, d := range defs {
		h[d.Name] = rng.Uint64() & ((1 << uint(d.Bits)) - 1)
	}
	return h
}

func allKinds() []Stateful {
	return []Stateful{
		{Kind: Counter}, {Kind: PredRaw}, {Kind: IfElseRaw},
		{Kind: Sub}, {Kind: NestedIfs}, {Kind: Pair},
	}
}

func TestKindNames(t *testing.T) {
	for _, s := range allKinds() {
		k, err := KindByName(s.Kind.String())
		if err != nil {
			t.Fatal(err)
		}
		if k != s.Kind {
			t.Fatalf("KindByName(%s) = %v", s.Kind, k)
		}
	}
	if _, err := KindByName("bogus"); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	if Kind(99).String() == "" {
		t.Fatal("out-of-range kind should still render")
	}
}

func TestHoleInventories(t *testing.T) {
	wantCounts := map[Kind]int{
		Counter: 2, PredRaw: 8, IfElseRaw: 11, Sub: 12, NestedIfs: 21, Pair: 14,
	}
	for _, s := range allKinds() {
		defs := s.Holes()
		if len(defs) != wantCounts[s.Kind] {
			t.Errorf("%s: %d holes, want %d", s.Kind, len(defs), wantCounts[s.Kind])
		}
		seen := map[string]bool{}
		for _, d := range defs {
			if d.Bits <= 0 {
				t.Errorf("%s: hole %s has non-positive width", s.Kind, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s: duplicate hole name %s", s.Kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
}

func TestStatefulShape(t *testing.T) {
	for _, s := range allKinds() {
		wantStates, wantOps := 1, 1
		if s.Kind == Pair {
			wantStates, wantOps = 2, 2
		}
		if s.NumStates() != wantStates || s.NumPacketOperands() != wantOps {
			t.Errorf("%s: states=%d ops=%d", s.Kind, s.NumStates(), s.NumPacketOperands())
		}
	}
}

func TestConstBitsDefaults(t *testing.T) {
	if (Stateful{Kind: Counter}).EffectiveConstBits() != DefaultConstBits {
		t.Fatal("default const bits")
	}
	if (Stateful{Kind: Counter, ConstBits: 6}).EffectiveConstBits() != 6 {
		t.Fatal("explicit const bits")
	}
	if (Stateless{}).EffectiveConstBits() != DefaultConstBits {
		t.Fatal("stateless default const bits")
	}
	if (Stateless{}).EffectiveOpcodeMask() != FullOpcodeMask {
		t.Fatal("stateless default mask")
	}
	if (Stateless{OpcodeMask: ArithOnlyMask}).EffectiveOpcodeMask() != ArithOnlyMask {
		t.Fatal("stateless explicit mask")
	}
}

// TestStatefulCircuitMatchesConcrete is the central ALU soundness property:
// for every template, random holes, random state and operands, the symbolic
// circuit evaluates to exactly the concrete semantics.
func TestStatefulCircuitMatchesConcrete(t *testing.T) {
	const w = word.Width(5)
	rng := rand.New(rand.NewSource(17))
	conc := arith.Conc{W: w}
	for _, s := range allKinds() {
		// Build the symbolic ALU once with input words for everything.
		b := circuit.New()
		circ := arith.Circ{B: b, W: w}
		symHoles := map[string]circuit.Word{}
		for _, d := range s.Holes() {
			// Holes enter zero-extended to the datapath width.
			narrow := b.InputWord(word.Width(d.Bits))
			wide := make(circuit.Word, w)
			copy(wide, narrow)
			for i := d.Bits; i < int(w); i++ {
				wide[i] = circuit.False
			}
			symHoles[d.Name] = wide
		}
		symState := make([]circuit.Word, s.NumStates())
		for i := range symState {
			symState[i] = b.InputWord(w)
		}
		symPkt := make([]circuit.Word, s.NumPacketOperands())
		for i := range symPkt {
			symPkt[i] = b.InputWord(w)
		}
		holeWords := map[string]circuit.Word{}
		for _, d := range s.Holes() {
			holeWords[d.Name] = symHoles[d.Name][:d.Bits]
		}
		symHolesV := map[string]circuit.Word{}
		for k, v := range symHoles {
			symHolesV[k] = v
		}
		newSym, outSym := EvalStateful[circuit.Word](circ, s, symHolesV, symState, symPkt)

		for trial := 0; trial < 150; trial++ {
			holes := randHoles(rng, s.Holes())
			state := make([]uint64, s.NumStates())
			for i := range state {
				state[i] = w.Trunc(rng.Uint64())
			}
			pkt := make([]uint64, s.NumPacketOperands())
			for i := range pkt {
				pkt[i] = w.Trunc(rng.Uint64())
			}
			holesV := map[string]uint64{}
			for k, v := range holes {
				holesV[k] = v
			}
			newConc, outConc := EvalStateful[uint64](conc, s, holesV, state, pkt)

			assign := map[circuit.Bit]bool{}
			for k, v := range holes {
				circuit.SetWordInputs(assign, holeWords[k], v)
			}
			for i, sv := range state {
				circuit.SetWordInputs(assign, symState[i], sv)
			}
			for i, pv := range pkt {
				circuit.SetWordInputs(assign, symPkt[i], pv)
			}
			for i := range newConc {
				if got := b.EvalWord(assign, newSym[i]); got != newConc[i] {
					t.Fatalf("%s trial %d: state[%d] circuit=%d concrete=%d (holes=%v state=%v pkt=%v)",
						s.Kind, trial, i, got, newConc[i], holes, state, pkt)
				}
			}
			if got := b.EvalWord(assign, outSym); got != outConc {
				t.Fatalf("%s trial %d: out circuit=%d concrete=%d (holes=%v)",
					s.Kind, trial, got, outConc, holes)
			}
		}
	}
}

// TestStatelessCircuitMatchesConcrete mirrors the stateful cross-check for
// the stateless ALU.
func TestStatelessCircuitMatchesConcrete(t *testing.T) {
	const w = word.Width(5)
	rng := rand.New(rand.NewSource(23))
	conc := arith.Conc{W: w}
	sl := Stateless{}

	b := circuit.New()
	circ := arith.Circ{B: b, W: w}
	defs := sl.Holes()
	narrow := map[string]circuit.Word{}
	symHoles := map[string]circuit.Word{}
	for _, d := range defs {
		nw := b.InputWord(word.Width(d.Bits))
		narrow[d.Name] = nw
		wide := make(circuit.Word, w)
		copy(wide, nw)
		for i := d.Bits; i < int(w); i++ {
			wide[i] = circuit.False
		}
		symHoles[d.Name] = wide
	}
	opA := b.InputWord(w)
	opB := b.InputWord(w)
	outSym := EvalStateless[circuit.Word](circ, symHoles, opA, opB)

	for trial := 0; trial < 400; trial++ {
		holes := randHoles(rng, defs)
		a := w.Trunc(rng.Uint64())
		bb := w.Trunc(rng.Uint64())
		outConc := EvalStateless[uint64](conc, holes, a, bb)
		assign := map[circuit.Bit]bool{}
		for k, v := range holes {
			circuit.SetWordInputs(assign, narrow[k], v)
		}
		circuit.SetWordInputs(assign, opA, a)
		circuit.SetWordInputs(assign, opB, bb)
		if got := b.EvalWord(assign, outSym); got != outConc {
			t.Fatalf("trial %d: circuit=%d concrete=%d (holes=%v a=%d b=%d)",
				trial, got, outConc, holes, a, bb)
		}
	}
}

// TestStatelessOpcodeSemantics pins each opcode to its documented meaning.
func TestStatelessOpcodeSemantics(t *testing.T) {
	const w = word.Width(8)
	conc := arith.Conc{W: w}
	eval := func(op, imm, a, b uint64) uint64 {
		return EvalStateless[uint64](conc, map[string]uint64{"opcode": op, "imm": imm}, a, b)
	}
	cases := []struct {
		op        uint64
		imm, a, b uint64
		want      uint64
	}{
		{SlOpConst, 9, 1, 2, 9},
		{SlOpPassA, 9, 7, 2, 7},
		{SlOpAdd, 0, 250, 10, 4},
		{SlOpSub, 0, 3, 5, 254},
		{SlOpAddImm, 5, 10, 99, 15},
		{SlOpSubImm, 5, 10, 99, 5},
		{SlOpAnd, 0, 0xF0, 0x3C, 0x30},
		{SlOpOr, 0, 0xF0, 0x0C, 0xFC},
		{SlOpXor, 0, 0xFF, 0x0F, 0xF0},
		{SlOpNot, 0, 0x0F, 99, 0xF0},
		{SlOpEq, 0, 5, 5, 1},
		{SlOpNe, 0, 5, 5, 0},
		{SlOpLt, 0, 255, 1, 1}, // signed -1 < 1
		{SlOpGe, 0, 255, 1, 0},
		{SlOpEqImm, 10, 10, 99, 1},
		{SlOpCond, 42, 0, 7, 42},
		{SlOpCond, 42, 1, 7, 7},
	}
	for _, c := range cases {
		if got := eval(c.op, c.imm, c.a, c.b); got != c.want {
			t.Errorf("%s(a=%d,b=%d,imm=%d) = %d, want %d",
				StatelessOpName(c.op), c.a, c.b, c.imm, got, c.want)
		}
	}
	if StatelessOpName(99) != "op99" {
		t.Error("unknown opcode name")
	}
}

// TestIfElseRawImplementsSampling pins the hole assignment that makes
// if_else_raw implement Figure 2's whole transaction in one ALU:
// if (count == 10) { count = 0; sample = 1 } else { count++; sample = 0 }.
func TestIfElseRawImplementsSampling(t *testing.T) {
	const w = word.Width(8)
	conc := arith.Conc{W: w}
	s := Stateful{Kind: IfElseRaw}
	holes := map[string]uint64{
		"rel": RelEq, "cmp_lmux": 0, "cmp_rmux": 0, "cmp_const": 10,
		"then_mode": UpdSetOp, "then_mux": 0, "then_const": 0,
		"else_mode": UpdAddOp, "else_mux": 0, "else_const": 1,
		"out_sel": OutPred,
	}
	// Hit: count == 10 resets and samples.
	newS, out := EvalStateful[uint64](conc, s, holes, []uint64{10}, []uint64{99})
	if newS[0] != 0 || out != 1 {
		t.Fatalf("hit case: newS=%d out=%d, want 0, 1", newS[0], out)
	}
	// Miss: counter increments, no sample.
	newS, out = EvalStateful[uint64](conc, s, holes, []uint64{7}, []uint64{99})
	if newS[0] != 8 || out != 0 {
		t.Fatalf("miss case: newS=%d out=%d, want 8, 0", newS[0], out)
	}
}

// TestPredRawImplementsRCPSum pins pred_raw holes for an RCP partial sum:
// if (pkt.rtt < 30) sum_rtt = sum_rtt + pkt.rtt.
func TestPredRawImplementsRCPSum(t *testing.T) {
	const w = word.Width(8)
	conc := arith.Conc{W: w}
	s := Stateful{Kind: PredRaw}
	holes := map[string]uint64{
		"rel": RelLt, "cmp_lmux": 1, "cmp_rmux": 0, "cmp_const": 30,
		"upd_mode": UpdAddOp, "upd_mux": 1, "upd_const": 0,
		"out_sel": OutNewState,
	}
	newS, out := EvalStateful[uint64](conc, s, holes, []uint64{100}, []uint64{20})
	if newS[0] != 120 || out != 120 {
		t.Fatalf("rtt<30: newS=%d out=%d, want 120, 120", newS[0], out)
	}
	newS, _ = EvalStateful[uint64](conc, s, holes, []uint64{100}, []uint64{40})
	if newS[0] != 100 {
		t.Fatalf("rtt>=30: newS=%d, want 100 (unchanged)", newS[0])
	}
}

// TestPairImplementsFlowlet checks the Pair template can express the flowlet
// state update: if (arrival - last_time > delta) saved_hop = new_hop;
// last_time = arrival.
func TestPairImplementsFlowlet(t *testing.T) {
	const w = word.Width(8)
	conc := arith.Conc{W: w}
	s := Stateful{Kind: Pair}
	const delta = 5
	// S0=last_time, S1=saved_hop, P0=arrival, P1=new_hop.
	holes := map[string]uint64{
		"rel": RelGt, "cmp_lmux": 2, "cmp_rmux": 0, "cmp_const": delta, "upd_const": 0,
		"s0_then_sel": 2, "s0_then_mode": UpdKeep, // S0' = P0
		"s0_else_sel": 2, "s0_else_mode": UpdKeep, // S0' = P0
		"s1_then_sel": 3, "s1_then_mode": UpdKeep, // S1' = P1
		"s1_else_sel": 1, "s1_else_mode": UpdKeep, // S1' = S1
		"out_sel": 3, // new S1
	}
	// Gap of 10 > delta: hop changes.
	newS, out := EvalStateful[uint64](conc, s, holes, []uint64{100, 7}, []uint64{110, 9})
	if newS[0] != 110 || newS[1] != 9 || out != 9 {
		t.Fatalf("new flowlet: state=%v out=%d, want [110 9] 9", newS, out)
	}
	// Gap of 2 <= delta: hop sticks.
	newS, out = EvalStateful[uint64](conc, s, holes, []uint64{100, 7}, []uint64{102, 9})
	if newS[0] != 102 || newS[1] != 7 || out != 7 {
		t.Fatalf("same flowlet: state=%v out=%d, want [102 7] 7", newS, out)
	}
}

func TestEvalStatefulPanics(t *testing.T) {
	conc := arith.Conc{W: 8}
	t.Run("wrong state arity", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		EvalStateful[uint64](conc, Stateful{Kind: Counter}, nil, []uint64{1, 2}, []uint64{1})
	})
	t.Run("missing hole", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		EvalStateful[uint64](conc, Stateful{Kind: Counter}, map[string]uint64{}, []uint64{1}, []uint64{1})
	})
}
