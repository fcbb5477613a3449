package arith

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/circuit"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/word"
)

// allOps covers every binary and unary operator.
var binOps = []ast.Op{
	ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpBitAnd, ast.OpBitOr, ast.OpBitXor,
	ast.OpShl, ast.OpShr, ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt,
	ast.OpGe, ast.OpLAnd, ast.OpLOr,
}

var unOps = []ast.Op{ast.OpNeg, ast.OpNot, ast.OpBitNot}

// TestConcMatchesWord exhaustively checks the concrete instantiation against
// the word package at width 4 for every operator.
func TestConcMatchesWord(t *testing.T) {
	const w = word.Width(4)
	c := Conc{W: w}
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			for _, op := range binOps {
				got := Binary[uint64](c, op, a, b)
				want := refBinary(w, op, a, b)
				if got != want {
					t.Fatalf("%v(%d,%d) = %d, want %d", op, a, b, got, want)
				}
			}
		}
		for _, op := range unOps {
			got := Unary[uint64](c, op, a)
			want := refUnary(w, op, a)
			if got != want {
				t.Fatalf("%v(%d) = %d, want %d", op, a, got, want)
			}
		}
	}
}

func refBinary(w word.Width, op ast.Op, a, b uint64) uint64 {
	switch op {
	case ast.OpAdd:
		return w.Add(a, b)
	case ast.OpSub:
		return w.Sub(a, b)
	case ast.OpMul:
		return w.Mul(a, b)
	case ast.OpBitAnd:
		return w.And(a, b)
	case ast.OpBitOr:
		return w.Or(a, b)
	case ast.OpBitXor:
		return w.Xor(a, b)
	case ast.OpShl:
		return w.Shl(a, b)
	case ast.OpShr:
		return w.Shr(a, b)
	case ast.OpEq:
		return w.Eq(a, b)
	case ast.OpNe:
		return w.Ne(a, b)
	case ast.OpLt:
		return w.Lt(a, b)
	case ast.OpLe:
		return w.Le(a, b)
	case ast.OpGt:
		return w.Gt(a, b)
	case ast.OpGe:
		return w.Ge(a, b)
	case ast.OpLAnd:
		return word.LAnd(a, b)
	case ast.OpLOr:
		return word.LOr(a, b)
	}
	panic("unhandled")
}

func refUnary(w word.Width, op ast.Op, a uint64) uint64 {
	switch op {
	case ast.OpNeg:
		return w.Neg(a)
	case ast.OpNot:
		return word.LNot(a)
	case ast.OpBitNot:
		return w.Not(a)
	}
	panic("unhandled")
}

// TestCircMatchesConc exhaustively cross-checks the symbolic instantiation
// against the concrete one at width 3 for every operator.
func TestCircMatchesConc(t *testing.T) {
	const w = word.Width(3)
	b := circuit.New()
	cc := Circ{B: b, W: w}
	x := b.InputWord(w)
	y := b.InputWord(w)

	type probe struct {
		op    ast.Op
		out   circuit.Word
		unary bool
	}
	var probes []probe
	for _, op := range binOps {
		probes = append(probes, probe{op, Binary[circuit.Word](cc, op, x, y), false})
	}
	for _, op := range unOps {
		probes = append(probes, probe{op, Unary[circuit.Word](cc, op, x), true})
	}
	muxOut := cc.Mux(x, y, cc.ConstInt(5))

	conc := Conc{W: w}
	for a := uint64(0); a < 8; a++ {
		for bv := uint64(0); bv < 8; bv++ {
			in := map[circuit.Bit]bool{}
			circuit.SetWordInputs(in, x, a)
			circuit.SetWordInputs(in, y, bv)
			for _, p := range probes {
				got := b.EvalWord(in, p.out)
				var want uint64
				if p.unary {
					want = Unary[uint64](conc, p.op, a)
				} else {
					want = Binary[uint64](conc, p.op, a, bv)
				}
				if got != want {
					t.Fatalf("circ %v(%d,%d) = %d, want %d", p.op, a, bv, got, want)
				}
			}
			if got := b.EvalWord(in, muxOut); got != conc.Mux(a, bv, 5) {
				t.Fatalf("circ mux(%d,%d) = %d", a, bv, got)
			}
		}
	}
}

// randomProgram builds a random but well-formed Domino program.
func randomProgram(rng *rand.Rand) *ast.Program {
	fields := []string{"a", "b", "c"}
	states := []string{"s", "t"}
	var expr func(depth int) ast.Expr
	expr = func(depth int) ast.Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			switch rng.Intn(3) {
			case 0:
				return &ast.Num{Value: int64(rng.Intn(8))}
			case 1:
				return &ast.Field{Name: fields[rng.Intn(len(fields))]}
			default:
				return &ast.State{Name: states[rng.Intn(len(states))]}
			}
		}
		switch rng.Intn(8) {
		case 0:
			return &ast.Unary{Op: unOps[rng.Intn(len(unOps))], X: expr(depth - 1)}
		case 1:
			return &ast.Ternary{Cond: expr(depth - 1), T: expr(depth - 1), F: expr(depth - 1)}
		default:
			return &ast.Binary{Op: binOps[rng.Intn(len(binOps))], X: expr(depth - 1), Y: expr(depth - 1)}
		}
	}
	var stmts func(depth, n int) []ast.Stmt
	stmts = func(depth, n int) []ast.Stmt {
		out := make([]ast.Stmt, 0, n)
		for i := 0; i < n; i++ {
			if depth > 0 && rng.Intn(4) == 0 {
				out = append(out, &ast.If{
					Cond: expr(2),
					Then: stmts(depth-1, 1+rng.Intn(2)),
					Else: stmts(depth-1, rng.Intn(2)),
				})
				continue
			}
			lv := ast.LValue{Name: fields[rng.Intn(len(fields))], IsField: true}
			if rng.Intn(2) == 0 {
				lv = ast.LValue{Name: states[rng.Intn(len(states))], IsField: false}
			}
			out = append(out, &ast.Assign{LHS: lv, RHS: expr(3)})
		}
		return out
	}
	return &ast.Program{
		Name:  "random",
		Init:  map[string]int64{"s": int64(rng.Intn(4)), "t": 0},
		Stmts: stmts(2, 2+rng.Intn(3)),
	}
}

// TestEvalProgramMatchesInterp differential-tests the generic concrete
// evaluator (with its if-to-mux predication) against the reference
// interpreter on random programs and random inputs.
func TestEvalProgramMatchesInterp(t *testing.T) {
	const w = word.Width(6)
	rng := rand.New(rand.NewSource(41))
	ref := interp.MustNew(w)
	for trial := 0; trial < 200; trial++ {
		p := randomProgram(rng)
		for rep := 0; rep < 10; rep++ {
			snap := interp.NewSnapshot()
			env := NewEnv[uint64]()
			for _, f := range []string{"a", "b", "c"} {
				v := w.Trunc(rng.Uint64())
				snap.Pkt[f] = v
				env.Pkt[f] = v
			}
			for _, s := range []string{"s", "t"} {
				v := w.Trunc(rng.Uint64())
				snap.State[s] = v
				env.State[s] = v
			}
			want, err := ref.Run(p, snap)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EvalProgram[uint64](Conc{W: w}, p, env)
			if err != nil {
				t.Fatal(err)
			}
			vars := p.Variables()
			for _, f := range vars.Fields {
				if got.Pkt[f] != want.Pkt[f] {
					t.Fatalf("trial %d: pkt.%s = %d, interp says %d\nprogram:\n%s",
						trial, f, got.Pkt[f], want.Pkt[f], p.Print())
				}
			}
			for _, s := range vars.States {
				if got.State[s] != want.State[s] {
					t.Fatalf("trial %d: state %s = %d, interp says %d\nprogram:\n%s",
						trial, s, got.State[s], want.State[s], p.Print())
				}
			}
		}
	}
}

// TestCircProgramMatchesInterp encodes random programs as circuits and
// checks the circuit output against the interpreter on random inputs —
// the exact soundness property the CEGIS verification phase relies on.
func TestCircProgramMatchesInterp(t *testing.T) {
	const w = word.Width(4)
	rng := rand.New(rand.NewSource(43))
	ref := interp.MustNew(w)
	for trial := 0; trial < 60; trial++ {
		p := randomProgram(rng)
		b := circuit.New()
		cc := Circ{B: b, W: w}
		env := NewEnv[circuit.Word]()
		inputs := map[string]circuit.Word{}
		for _, f := range []string{"a", "b", "c"} {
			wd := b.InputWord(w)
			env.Pkt[f] = wd
			inputs["pkt."+f] = wd
		}
		for _, s := range []string{"s", "t"} {
			wd := b.InputWord(w)
			env.State[s] = wd
			inputs[s] = wd
		}
		out, err := EvalProgram[circuit.Word](cc, p, env)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 20; rep++ {
			snap := interp.NewSnapshot()
			assign := map[circuit.Bit]bool{}
			for _, f := range []string{"a", "b", "c"} {
				v := w.Trunc(rng.Uint64())
				snap.Pkt[f] = v
				circuit.SetWordInputs(assign, inputs["pkt."+f], v)
			}
			for _, s := range []string{"s", "t"} {
				v := w.Trunc(rng.Uint64())
				snap.State[s] = v
				circuit.SetWordInputs(assign, inputs[s], v)
			}
			want, err := ref.Run(p, snap)
			if err != nil {
				t.Fatal(err)
			}
			vars := p.Variables()
			for _, f := range vars.Fields {
				if got := b.EvalWord(assign, out.Pkt[f]); got != want.Pkt[f] {
					t.Fatalf("trial %d: circuit pkt.%s = %d, interp says %d\nprogram:\n%s",
						trial, f, got, want.Pkt[f], p.Print())
				}
			}
			for _, s := range vars.States {
				if got := b.EvalWord(assign, out.State[s]); got != want.State[s] {
					t.Fatalf("trial %d: circuit state %s = %d, interp says %d\nprogram:\n%s",
						trial, s, got, want.State[s], p.Print())
				}
			}
		}
	}
}

// TestEvalProgramSampling sanity-checks the paper's Figure 2 program through
// the generic evaluator.
func TestEvalProgramSampling(t *testing.T) {
	p := parser.MustParse("sampling", `
int count = 0;
if (count == 10) { count = 0; pkt.sample = 1; }
else { count = count + 1; pkt.sample = 0; }
`)
	c := Conc{W: 8}
	env := NewEnv[uint64]()
	env.State["count"] = 10
	out, err := EvalProgram[uint64](c, p, env)
	if err != nil {
		t.Fatal(err)
	}
	if out.Pkt["sample"] != 1 || out.State["count"] != 0 {
		t.Fatalf("sample=%d count=%d, want 1, 0", out.Pkt["sample"], out.State["count"])
	}
}

func TestEvalExprMissingVarsReadZero(t *testing.T) {
	c := Conc{W: 8}
	e, err := parser.ParseExpr("pkt.nothere + missing + 3")
	if err != nil {
		t.Fatal(err)
	}
	v, err := EvalExpr[uint64](c, e, NewEnv[uint64]())
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("missing vars should read 0; got %d", v)
	}
}

func TestBinaryPanicsOnUnary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Binary should panic on a unary op")
		}
	}()
	Binary[uint64](Conc{W: 8}, ast.OpNeg, 1, 2)
}
