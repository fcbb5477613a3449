package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sat"
	"repro/internal/word"
)

// evalBinop builds a fresh circuit computing op over two input words,
// evaluates it on (a, b), and returns the result.
func evalBinop(t *testing.T, w word.Width, op func(b *Builder, x, y Word) Word, a, bv uint64) uint64 {
	t.Helper()
	b := New()
	x := b.InputWord(w)
	y := b.InputWord(w)
	out := op(b, x, y)
	in := map[Bit]bool{}
	SetWordInputs(in, x, a)
	SetWordInputs(in, y, bv)
	return b.EvalWord(in, out)
}

// exhaustive4 checks a circuit binop against a reference over all pairs of
// 4-bit words.
func exhaustive4(t *testing.T, name string, op func(b *Builder, x, y Word) Word, ref func(w word.Width, a, b uint64) uint64) {
	t.Helper()
	const w = word.Width(4)
	b := New()
	x := b.InputWord(w)
	y := b.InputWord(w)
	out := op(b, x, y)
	for a := uint64(0); a < 16; a++ {
		for c := uint64(0); c < 16; c++ {
			in := map[Bit]bool{}
			SetWordInputs(in, x, a)
			SetWordInputs(in, y, c)
			got := b.EvalWord(in, out)
			want := ref(w, a, c)
			if got != want {
				t.Fatalf("%s(%d, %d) = %d, want %d", name, a, c, got, want)
			}
		}
	}
}

func TestAddExhaustive(t *testing.T) {
	exhaustive4(t, "add", (*Builder).AddW, word.Width.Add)
}

func TestSubExhaustive(t *testing.T) {
	exhaustive4(t, "sub", (*Builder).SubW, word.Width.Sub)
}

func TestMulExhaustive(t *testing.T) {
	exhaustive4(t, "mul", (*Builder).MulW, word.Width.Mul)
}

func TestBitwiseExhaustive(t *testing.T) {
	exhaustive4(t, "and", (*Builder).AndW, word.Width.And)
	exhaustive4(t, "or", (*Builder).OrW, word.Width.Or)
	exhaustive4(t, "xor", (*Builder).XorW, word.Width.Xor)
}

func TestShiftExhaustive(t *testing.T) {
	exhaustive4(t, "shl", (*Builder).ShlW, word.Width.Shl)
	exhaustive4(t, "shr", (*Builder).ShrW, word.Width.Shr)
}

func TestComparisonsExhaustive(t *testing.T) {
	boolOp := func(f func(b *Builder, x, y Word) Bit) func(b *Builder, x, y Word) Word {
		return func(b *Builder, x, y Word) Word {
			return b.BoolToWord(f(b, x, y), word.Width(len(x)))
		}
	}
	exhaustive4(t, "eq", boolOp((*Builder).EqW), word.Width.Eq)
	exhaustive4(t, "slt", boolOp((*Builder).SltW), word.Width.Lt)
	exhaustive4(t, "sle", boolOp((*Builder).SleW), word.Width.Le)
	exhaustive4(t, "ult", boolOp((*Builder).UltW), func(w word.Width, a, b uint64) uint64 {
		return word.Bool(w.Trunc(a) < w.Trunc(b))
	})
}

func TestNegNotExhaustive(t *testing.T) {
	const w = word.Width(5)
	b := New()
	x := b.InputWord(w)
	neg := b.NegW(x)
	not := b.NotW(x)
	nz := b.BoolToWord(b.NonZero(x), w)
	for a := uint64(0); a < 32; a++ {
		in := map[Bit]bool{}
		SetWordInputs(in, x, a)
		if got := b.EvalWord(in, neg); got != w.Neg(a) {
			t.Fatalf("neg(%d) = %d, want %d", a, got, w.Neg(a))
		}
		if got := b.EvalWord(in, not); got != w.Not(a) {
			t.Fatalf("not(%d) = %d, want %d", a, got, w.Not(a))
		}
		if got := b.EvalWord(in, nz); got != word.Bool(a != 0) {
			t.Fatalf("nonzero(%d) = %d", a, got)
		}
	}
}

// TestWideOpsQuick property-tests 10-bit operations (the paper's Z3
// verification width) against the word reference using testing/quick.
func TestWideOpsQuick(t *testing.T) {
	const w = word.Width(10)
	b := New()
	x := b.InputWord(w)
	y := b.InputWord(w)
	add := b.AddW(x, y)
	sub := b.SubW(x, y)
	mul := b.MulW(x, y)
	slt := b.BoolToWord(b.SltW(x, y), w)
	f := func(a, c uint16) bool {
		av, cv := w.Trunc(uint64(a)), w.Trunc(uint64(c))
		in := map[Bit]bool{}
		SetWordInputs(in, x, av)
		SetWordInputs(in, y, cv)
		return b.EvalWord(in, add) == w.Add(av, cv) &&
			b.EvalWord(in, sub) == w.Sub(av, cv) &&
			b.EvalWord(in, mul) == w.Mul(av, cv) &&
			b.EvalWord(in, slt) == w.Lt(av, cv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMuxWord(t *testing.T) {
	const w = word.Width(6)
	b := New()
	s := b.Input()
	x := b.InputWord(w)
	y := b.InputWord(w)
	m := b.MuxW(s, x, y)
	for _, sel := range []bool{false, true} {
		in := map[Bit]bool{s: sel}
		SetWordInputs(in, x, 42)
		SetWordInputs(in, y, 17)
		want := uint64(17)
		if sel {
			want = 42
		}
		if got := b.EvalWord(in, m); got != want {
			t.Fatalf("mux(%v) = %d, want %d", sel, got, want)
		}
	}
}

func TestConstantFolding(t *testing.T) {
	b := New()
	x := b.Input()
	if b.And(x, False) != False || b.And(False, x) != False {
		t.Fatal("AND with false should fold")
	}
	if b.And(x, True) != x {
		t.Fatal("AND with true should fold to operand")
	}
	if b.And(x, x) != x {
		t.Fatal("AND idempotence")
	}
	if b.And(x, b.Not(x)) != False {
		t.Fatal("AND with complement should fold to false")
	}
	if b.Xor(x, x) != False || b.Xor(x, False) != x {
		t.Fatal("XOR folding")
	}
	if b.Xor(x, b.Not(x)) != True {
		t.Fatal("XOR with complement should fold to true")
	}
	if b.Not(b.Not(x)) != x {
		t.Fatal("double negation should fold")
	}
	if b.Mux(True, x, False) != x || b.Mux(False, False, x) != x {
		t.Fatal("MUX constant select should fold")
	}
	if b.Mux(x, True, False) != x {
		t.Fatal("MUX to identity should fold")
	}
}

func TestStructuralHashing(t *testing.T) {
	b := New()
	x, y := b.Input(), b.Input()
	a1 := b.And(x, y)
	a2 := b.And(y, x) // commuted operands must hash to the same node
	if a1 != a2 {
		t.Fatal("structural hashing should dedupe commuted AND")
	}
	n := b.NumGates()
	_ = b.And(x, y)
	if b.NumGates() != n {
		t.Fatal("repeated construction should not grow the DAG")
	}
}

// TestStrashProperties builds random word arithmetic until the strash table
// has doubled several times, checking Eval against internal/word on random
// inputs across every growth, then checks that rebuilding each gate (And
// and Xor with operands commuted) finds the existing node and that every
// node's double complement is itself.
func TestStrashProperties(t *testing.T) {
	const w = word.Width(8)
	ops := []struct {
		circ func(b *Builder, x, y Word) Word
		ref  func(w word.Width, a, b uint64) uint64
	}{
		{(*Builder).AddW, word.Width.Add},
		{(*Builder).SubW, word.Width.Sub},
		{(*Builder).MulW, word.Width.Mul},
		{(*Builder).AndW, word.Width.And},
		{(*Builder).OrW, word.Width.Or},
		{(*Builder).XorW, word.Width.Xor},
		{(*Builder).ShrW, word.Width.Shr},
	}
	rng := rand.New(rand.NewSource(7))
	b := New()
	const trials = 16
	inputs := make([]map[Bit]bool, trials)
	for i := range inputs {
		inputs[i] = map[Bit]bool{}
	}
	var pool []Word
	var refs [][trials]uint64 // refs[k][i]: pool[k]'s value under inputs[i]
	for k := 0; k < 4; k++ {
		x := b.InputWord(w)
		var r [trials]uint64
		for i := range inputs {
			r[i] = w.Trunc(rng.Uint64())
			SetWordInputs(inputs[i], x, r[i])
		}
		pool, refs = append(pool, x), append(refs, r)
	}
	checkPool := func(when string) {
		t.Helper()
		var outs []Bit
		for _, x := range pool {
			outs = append(outs, x...)
		}
		for i, in := range inputs {
			got := b.Eval(in, outs...)
			for k := range pool {
				var v uint64
				for j := 0; j < int(w); j++ {
					if got[k*int(w)+j] {
						v |= 1 << uint(j)
					}
				}
				if v != refs[k][i] {
					t.Fatalf("%s: word %d under input %d = %d, want %d", when, k, i, v, refs[k][i])
				}
			}
		}
	}
	growths := 0
	for growths < 4 {
		if len(pool) > 2000 {
			t.Fatalf("strash table grew only %d times over %d words", growths, len(pool))
		}
		op := ops[rng.Intn(len(ops))]
		x, y := rng.Intn(len(pool)), rng.Intn(len(pool))
		size := len(b.table)
		if size != initialTable<<growths {
			t.Fatalf("table has %d slots, want %d", size, initialTable<<growths)
		}
		checkPool("before growth")
		pool = append(pool, op.circ(b, pool[x], pool[y]))
		var r [trials]uint64
		for i := range r {
			r[i] = op.ref(w, refs[x][i], refs[y][i])
		}
		refs = append(refs, r)
		if len(b.table) != size {
			growths++
			checkPool("after growth")
		}
	}

	n := Bit(b.NumGates())
	for id := Bit(2); id < n; id++ {
		g := b.gates[id]
		var again Bit
		switch g.op {
		case opInput:
			continue
		case opAnd:
			again = b.And(g.b, g.a)
		case opXor:
			again = b.Xor(g.b, g.a)
		case opMux:
			again = b.Mux(g.a, g.b, g.c)
		case opNot:
			again = b.Not(g.a)
		}
		if again != id {
			t.Fatalf("rebuilding gate %d (%+v) returned %d", id, g, again)
		}
	}
	for id := Bit(0); id < n; id++ {
		if got := b.Not(b.Not(id)); got != id {
			t.Fatalf("Not(Not(%d)) = %d", id, got)
		}
	}
	checkPool("after rebuild")
}

// TestTseitinAgainstEval is the bit-blasting soundness property: for random
// circuits, assert the output, solve, and check that the model's inputs
// actually make the output true under concrete evaluation.
func TestTseitinAgainstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		b := New()
		nIn := 3 + rng.Intn(5)
		nodes := make([]Bit, 0, 40)
		for i := 0; i < nIn; i++ {
			nodes = append(nodes, b.Input())
		}
		for i := 0; i < 25; i++ {
			a := nodes[rng.Intn(len(nodes))]
			c := nodes[rng.Intn(len(nodes))]
			var n Bit
			switch rng.Intn(4) {
			case 0:
				n = b.And(a, c)
			case 1:
				n = b.Xor(a, c)
			case 2:
				n = b.Not(a)
			case 3:
				n = b.Mux(a, c, nodes[rng.Intn(len(nodes))])
			}
			nodes = append(nodes, n)
		}
		out := nodes[len(nodes)-1]

		// Determine ground truth by enumerating all inputs.
		satisfiable := false
		for m := 0; m < 1<<uint(nIn); m++ {
			in := map[Bit]bool{}
			for i := 0; i < nIn; i++ {
				in[nodes[i]] = m&(1<<uint(i)) != 0
			}
			if b.Eval(in, out)[0] {
				satisfiable = true
				break
			}
		}

		s := sat.New()
		cnf := NewCNF(b, s)
		cnf.Assert(out)
		got := s.Solve()
		if (got == sat.Sat) != satisfiable {
			t.Fatalf("trial %d: solver=%v enumeration=%v", trial, got, satisfiable)
		}
		if got == sat.Sat {
			in := map[Bit]bool{}
			for i := 0; i < nIn; i++ {
				in[nodes[i]] = cnf.BitValue(nodes[i])
			}
			if !b.Eval(in, out)[0] {
				t.Fatalf("trial %d: SAT model does not satisfy circuit", trial)
			}
		}
	}
}

// TestTseitinAddEquivalence proves via SAT that the ripple-carry adder is
// commutative: no input makes x+y differ from y+x.
func TestTseitinAddEquivalence(t *testing.T) {
	const w = word.Width(8)
	b := New()
	x := b.InputWord(w)
	y := b.InputWord(w)
	lhs := b.AddW(x, y)
	rhs := b.AddW(y, x)
	s := sat.New()
	cnf := NewCNF(b, s)
	cnf.AssertNot(b.EqW(lhs, rhs)) // search for a counterexample
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("adder commutativity counterexample search = %v, want Unsat", got)
	}
}

// TestTseitinFindsSolution solves x + 3 == 10 at width 8 through the SAT
// backend and checks the discovered model.
func TestTseitinFindsSolution(t *testing.T) {
	const w = word.Width(8)
	b := New()
	x := b.InputWord(w)
	sum := b.AddW(x, b.ConstWord(3, w))
	eq := b.EqW(sum, b.ConstWord(10, w))
	s := sat.New()
	cnf := NewCNF(b, s)
	cnf.Assert(eq)
	if got := s.Solve(); got != sat.Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if v := cnf.WordValue(x); v != 7 {
		t.Fatalf("model x = %d, want 7", v)
	}
}

// TestTseitinUnsatEquation checks that 2*x == 1 has no solution at width 8
// (left side always even).
func TestTseitinUnsatEquation(t *testing.T) {
	const w = word.Width(8)
	b := New()
	x := b.InputWord(w)
	dbl := b.AddW(x, x)
	eq := b.EqW(dbl, b.ConstWord(1, w))
	s := sat.New()
	cnf := NewCNF(b, s)
	cnf.Assert(eq)
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestAssertConstants(t *testing.T) {
	s := sat.New()
	b := New()
	cnf := NewCNF(b, s)
	cnf.Assert(True) // no-op
	if got := s.Solve(); got != sat.Sat {
		t.Fatalf("after Assert(True): %v, want Sat", got)
	}
	cnf.AssertNot(False) // no-op
	if got := s.Solve(); got != sat.Sat {
		t.Fatalf("after AssertNot(False): %v, want Sat", got)
	}
	cnf.Assert(False)
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("after Assert(False): %v, want Unsat", got)
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	b := New()
	x := b.InputWord(4)
	y := b.InputWord(5)
	b.AddW(x, y)
}

func BenchmarkBuildAdder32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bld := New()
		x := bld.InputWord(32)
		y := bld.InputWord(32)
		_ = bld.AddW(x, y)
	}
}

func BenchmarkTseitinMul10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bld := New()
		x := bld.InputWord(10)
		y := bld.InputWord(10)
		m := bld.MulW(x, y)
		s := sat.New()
		cnf := NewCNF(bld, s)
		cnf.Assert(bld.EqW(m, bld.ConstWord(391, 10)))
		s.Solve()
	}
}

func TestCNFEncodingSizeCounters(t *testing.T) {
	b := New()
	s := sat.New()
	cnf := NewCNF(b, s)
	if cnf.NumVars() != 0 || cnf.NumClauses() != 0 {
		t.Fatalf("fresh CNF reports vars=%d clauses=%d", cnf.NumVars(), cnf.NumClauses())
	}
	x := b.InputWord(4)
	y := b.InputWord(4)
	cnf.Assert(b.EqW(b.AddW(x, y), b.ConstWord(5, 4)))
	if cnf.NumVars() == 0 || cnf.NumClauses() == 0 {
		t.Fatalf("encoding produced vars=%d clauses=%d", cnf.NumVars(), cnf.NumClauses())
	}
	// Every variable the encoder allocated is visible to the solver, and
	// the encoder saw at least as many clause adds as the solver retained
	// (the solver drops satisfied/tautological clauses).
	if cnf.NumVars() != s.NumVars() {
		t.Fatalf("CNF vars %d != solver vars %d (sole encoder)", cnf.NumVars(), s.NumVars())
	}
	if cnf.NumClauses() < s.NumClauses() {
		t.Fatalf("CNF clauses %d < solver clauses %d", cnf.NumClauses(), s.NumClauses())
	}
	// Re-asserting the same cone adds one clause, no new vars.
	v, cl := cnf.NumVars(), cnf.NumClauses()
	cnf.Assert(b.EqW(b.AddW(x, y), b.ConstWord(5, 4)))
	if cnf.NumVars() != v || cnf.NumClauses() != cl+1 {
		t.Fatalf("re-assert changed vars %d->%d clauses %d->%d", v, cnf.NumVars(), cl, cnf.NumClauses())
	}
}
