// Package superopt implements the paper's first future-work direction
// (§5.1, "Synthesizing Fast Processor Code"): a superoptimizing compiler
// for straight-line packet-processing code.
//
// Unlike a standard compiler that lowers an expression tree instruction by
// instruction, a superoptimizer searches the space of instruction sequences
// for a minimal program implementing the whole specification (Massalin
// 1987; the paper cites modern CEGIS-based successors that beat gcc -O3 on
// short sequences). The machine modeled here is a small single-core
// packet-processor ISA in static single assignment form: each instruction
// reads two earlier values (packet-header inputs or prior results, chosen
// by operand-selector holes) or an immediate, and produces one new value.
// The objective function is the paper's default — minimum instruction
// count — searched by iterative deepening over sequence length, with each
// length decided by the same CEGIS/SAT substrate Chipmunk uses.
//
// The classic demonstration is the paper's own Figure 1: the specification
// x*5 superoptimizes to the two-instruction sequence
//
//	v1 = shli v0, 2
//	v2 = add  v1, v0
//
// on a machine with no multiplier.
package superopt

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/arith"
	"repro/internal/ast"
	"repro/internal/circuit"
	"repro/internal/interp"
	"repro/internal/pisa"
	"repro/internal/sat"
	"repro/internal/word"
)

// Opcode enumerates the target ISA. All instructions are value -> value;
// shifts take their amount from the immediate field.
type Opcode int

// The ISA. MovImm materializes the immediate; Mux is a conditional move
// (a ? b : imm), matching what NPU microengines offer.
const (
	OpAdd    Opcode = iota // a + b
	OpSub                  // a - b
	OpAnd                  // a & b
	OpOr                   // a | b
	OpXor                  // a ^ b
	OpNot                  // ^a
	OpNeg                  // -a
	OpShlI                 // a << imm
	OpShrI                 // a >> imm
	OpAddI                 // a + imm
	OpSubI                 // a - imm
	OpEq                   // a == b
	OpLt                   // a < b (signed)
	OpMovImm               // imm
	OpMux                  // a != 0 ? b : imm

	numOpcodes
)

var opcodeNames = [numOpcodes]string{
	"add", "sub", "and", "or", "xor", "not", "neg", "shli", "shri",
	"addi", "subi", "eq", "lt", "movimm", "mux",
}

// String returns the mnemonic.
func (o Opcode) String() string {
	if o >= 0 && o < numOpcodes {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op%d", int(o))
}

const opcodeBits = 4

// Instr is one synthesized instruction. A and B index the value numbering:
// values 0..nInputs-1 are the packet-field inputs in specification order,
// value nInputs+k is instruction k's result.
type Instr struct {
	Op   Opcode
	A, B int
	Imm  uint64
}

// render formats the instruction with value names.
func (ins Instr) render(idx, nInputs int, inputs []string) string {
	name := func(v int) string {
		if v < nInputs {
			return "%" + inputs[v]
		}
		return fmt.Sprintf("v%d", v-nInputs+1)
	}
	dst := fmt.Sprintf("v%d", idx+1)
	switch ins.Op {
	case OpNot, OpNeg:
		return fmt.Sprintf("%s = %s %s", dst, ins.Op, name(ins.A))
	case OpShlI, OpShrI, OpAddI, OpSubI:
		return fmt.Sprintf("%s = %s %s, %d", dst, ins.Op, name(ins.A), ins.Imm)
	case OpMovImm:
		return fmt.Sprintf("%s = %s %d", dst, ins.Op, ins.Imm)
	case OpMux:
		return fmt.Sprintf("%s = %s %s, %s, %d", dst, ins.Op, name(ins.A), name(ins.B), ins.Imm)
	default:
		return fmt.Sprintf("%s = %s %s, %s", dst, ins.Op, name(ins.A), name(ins.B))
	}
}

// Sequence is a superoptimized program: instructions plus, for every
// specification output, the value index holding it.
type Sequence struct {
	Inputs  []string
	Outputs []string
	Instrs  []Instr
	// OutVals[i] is the value index (input or instruction result) that
	// carries output i.
	OutVals []int
}

// String renders assembly-like text.
func (s *Sequence) String() string {
	var sb strings.Builder
	for i, ins := range s.Instrs {
		fmt.Fprintf(&sb, "  %s\n", ins.render(i, len(s.Inputs), s.Inputs))
	}
	for i, o := range s.Outputs {
		v := s.OutVals[i]
		name := "v0"
		if v < len(s.Inputs) {
			name = "%" + s.Inputs[v]
		} else {
			name = fmt.Sprintf("v%d", v-len(s.Inputs)+1)
		}
		fmt.Fprintf(&sb, "  %%%s <- %s\n", o, name)
	}
	return sb.String()
}

// Exec runs the sequence concretely at width w.
func (s *Sequence) Exec(w word.Width, in map[string]uint64) map[string]uint64 {
	a := arith.Conc{W: w}
	vals := make([]uint64, 0, len(s.Inputs)+len(s.Instrs))
	for _, f := range s.Inputs {
		vals = append(vals, w.Trunc(in[f]))
	}
	for _, ins := range s.Instrs {
		vals = append(vals, evalInstr(a, ins.Op, vals[ins.A], vals[ins.B], a.ConstInt(int64(ins.Imm))))
	}
	out := map[string]uint64{}
	for i, o := range s.Outputs {
		out[o] = vals[s.OutVals[i]]
	}
	return out
}

// evalInstr is the single source of truth for instruction semantics,
// written over arith.Arith so the synthesizer and the executor agree.
func evalInstr[V any](a arith.Arith[V], op Opcode, x, y, imm V) V {
	switch op {
	case OpAdd:
		return a.Add(x, y)
	case OpSub:
		return a.Sub(x, y)
	case OpAnd:
		return a.BitAnd(x, y)
	case OpOr:
		return a.BitOr(x, y)
	case OpXor:
		return a.BitXor(x, y)
	case OpNot:
		return a.BitNot(x)
	case OpNeg:
		return a.Neg(x)
	case OpShlI:
		return a.Shl(x, imm)
	case OpShrI:
		return a.Shr(x, imm)
	case OpAddI:
		return a.Add(x, imm)
	case OpSubI:
		return a.Sub(x, imm)
	case OpEq:
		return a.Eq(x, y)
	case OpLt:
		return a.Lt(x, y)
	case OpMovImm:
		return imm
	case OpMux:
		return a.Mux(x, y, imm)
	default:
		panic("superopt: bad opcode")
	}
}

// selectVal builds a mux chain picking value #sel from vals.
func selectVal[V any](a arith.Arith[V], sel V, vals []V) V {
	acc := vals[len(vals)-1]
	for i := len(vals) - 2; i >= 0; i-- {
		acc = a.Mux(a.Eq(sel, a.ConstInt(int64(i))), vals[i], acc)
	}
	return acc
}

// Options tunes the superoptimizer.
type Options struct {
	// MaxInstrs bounds the iterative-deepening search. 0 means 4.
	MaxInstrs int
	// ImmBits is the immediate field width. 0 means 4.
	ImmBits int
	// SynthWidth and VerifyWidth mirror the CEGIS tiers. 0 means 4 / 10
	// (SynthWidth is clamped to the control-hole minimum internally).
	SynthWidth  word.Width
	VerifyWidth word.Width
	// MaxIters bounds CEGIS iterations per length. 0 means 64.
	MaxIters int
	// Seed drives initial test inputs.
	Seed int64
}

func (o *Options) maxInstrs() int {
	if o.MaxInstrs == 0 {
		return 4
	}
	return o.MaxInstrs
}

func (o *Options) immBits() int {
	if o.ImmBits == 0 {
		return 4
	}
	return o.ImmBits
}

func (o *Options) synthWidth() word.Width {
	w := o.SynthWidth
	if w == 0 {
		w = 4
	}
	if w < opcodeBits {
		w = opcodeBits
	}
	// Operand selectors must not truncate either; callers with many
	// values get clamped in synthesize().
	return w
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

// Result reports a superoptimization run.
type Result struct {
	Feasible bool
	TimedOut bool
	Seq      *Sequence
	// Length is the minimal instruction count found.
	Length int
	// Probes records feasibility per attempted length.
	Probes  []int // lengths tried, in order
	Elapsed time.Duration
}

// Superoptimize finds a minimal instruction sequence implementing the
// program, which must be a pure packet transaction: field assignments only,
// no state (processor code here is stateless per-packet computation; the
// stateful story is Chipmunk's pipeline synthesis).
func Superoptimize(ctx context.Context, prog *ast.Program, opts Options) (*Result, error) {
	start := time.Now()
	vars := prog.Variables()
	if len(vars.States) > 0 {
		return nil, fmt.Errorf("superopt: program uses switch state; superoptimization targets stateless packet code")
	}
	// Outputs: every field the program writes. Inputs: every field it
	// reads (written-only fields still enter the value numbering as
	// inputs, matching header layout).
	inputs := vars.Fields
	outputs := writtenFields(prog)
	if len(outputs) == 0 {
		return nil, fmt.Errorf("superopt: program writes no packet fields")
	}

	res := &Result{}
	for n := 0; n <= opts.maxInstrs(); n++ {
		res.Probes = append(res.Probes, n)
		seq, feasible, timedOut, err := synthesize(ctx, prog, inputs, outputs, n, opts)
		if err != nil {
			return nil, err
		}
		if timedOut {
			res.TimedOut = true
			break
		}
		if feasible {
			res.Feasible = true
			res.Seq = seq
			res.Length = n
			break
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

func writtenFields(prog *ast.Program) []string {
	seen := map[string]bool{}
	var out []string
	var walk func([]ast.Stmt)
	walk = func(ss []ast.Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *ast.Assign:
				if s.LHS.IsField && !seen[s.LHS.Name] {
					seen[s.LHS.Name] = true
					out = append(out, s.LHS.Name)
				}
			case *ast.If:
				walk(s.Then)
				walk(s.Else)
			}
		}
	}
	walk(prog.Stmts)
	return out
}

// slotHoles are one instruction slot's synthesis holes.
type slotHoles struct {
	op, a, bSel, imm circuit.Word
}

// synthesize runs CEGIS for a fixed sequence length.
func synthesize(ctx context.Context, prog *ast.Program, inputs, outputs []string, n int, opts Options) (*Sequence, bool, bool, error) {
	b := circuit.New()

	selBits := pisa.MuxBits(len(inputs) + n)
	outBits := pisa.MuxBits(len(inputs) + n)

	slots := make([]slotHoles, n)
	for k := range slots {
		slots[k] = slotHoles{
			op:   b.InputWord(opcodeBits),
			a:    b.InputWord(word.Width(selBits)),
			bSel: b.InputWord(word.Width(selBits)),
			imm:  b.InputWord(word.Width(opts.immBits())),
		}
	}
	outSel := make([]circuit.Word, len(outputs))
	for i := range outputs {
		outSel[i] = b.InputWord(word.Width(outBits))
	}

	solver := sat.New()
	cnf := circuit.NewCNF(b, solver)

	// Domain constraints: opcode and selector ranges; operand selectors
	// must reference earlier values only (SSA).
	assertLess := func(hw circuit.Word, m int) {
		if m < 1<<uint(len(hw)) {
			cnf.Assert(b.UltW(hw, b.ConstWord(uint64(m), word.Width(len(hw)))))
		}
	}
	for k, s := range slots {
		assertLess(s.op, int(numOpcodes))
		assertLess(s.a, len(inputs)+k)
		assertLess(s.bSel, len(inputs)+k)
	}
	for i := range outputs {
		assertLess(outSel[i], len(inputs)+n)
	}

	// Instantiate the sketch at a width; control holes must not truncate.
	sw := opts.synthWidth()
	if min := word.Width(maxInt(selBits, outBits, opcodeBits)); sw < min {
		sw = min
	}
	vw := opts.verifyWidth()
	if vw < sw {
		vw = sw
	}

	widen := func(hw circuit.Word, w word.Width) circuit.Word {
		out := make(circuit.Word, w)
		for i := range out {
			if i < len(hw) {
				out[i] = hw[i]
			} else {
				out[i] = circuit.False
			}
		}
		return out
	}

	// build runs the symbolic machine over concrete or symbolic inputs.
	build := func(w word.Width, inVals []circuit.Word) []circuit.Word {
		a := arith.Circ{B: b, W: w}
		vals := append([]circuit.Word{}, inVals...)
		for _, s := range slots {
			op := widen(s.op, w)
			x := selectVal[circuit.Word](a, widen(s.a, w), vals)
			y := selectVal[circuit.Word](a, widen(s.bSel, w), vals)
			imm := widen(s.imm, w)
			// Mux over all opcodes.
			var choices []circuit.Word
			for o := Opcode(0); o < numOpcodes; o++ {
				choices = append(choices, evalInstr[circuit.Word](a, o, x, y, imm))
			}
			vals = append(vals, selectVal[circuit.Word](a, op, choices))
		}
		outs := make([]circuit.Word, len(outputs))
		for i := range outputs {
			outs[i] = selectVal[circuit.Word](a, widen(outSel[i], w), vals)
		}
		return outs
	}

	addTest := func(x interp.Snapshot, w word.Width) error {
		ii := interp.MustNew(w)
		spec, err := ii.Run(prog, x)
		if err != nil {
			return err
		}
		inVals := make([]circuit.Word, len(inputs))
		for i, f := range inputs {
			inVals[i] = b.ConstWord(w.Trunc(x.Pkt[f]), w)
		}
		outs := build(w, inVals)
		for i, o := range outputs {
			cnf.Assert(b.EqW(outs[i], b.ConstWord(spec.Pkt[o], w)))
		}
		return nil
	}
	// Seed tests.
	seedRng := newRng(opts.Seed)
	if err := addTest(interp.NewSnapshot(), sw); err != nil {
		return nil, false, false, err
	}
	for i := 0; i < 2; i++ {
		x := interp.NewSnapshot()
		for _, f := range inputs {
			x.Pkt[f] = sw.Trunc(seedRng.next())
		}
		if err := addTest(x, sw); err != nil {
			return nil, false, false, err
		}
	}

	for iter := 0; iter < opts.maxIters(); iter++ {
		st, timedOut := solveChunked(ctx, solver)
		if timedOut {
			return nil, false, true, nil
		}
		if st == sat.Unsat {
			return nil, false, false, nil
		}
		seq := extract(cnf, slots, outSel, inputs, outputs)
		cex, ok, timedOut, err := verifySeq(ctx, prog, seq, vw)
		if err != nil {
			return nil, false, false, err
		}
		if timedOut {
			return nil, false, true, nil
		}
		if ok {
			return seq, true, false, nil
		}
		if err := addTest(cex, vw); err != nil {
			return nil, false, false, err
		}
	}
	return nil, false, false, fmt.Errorf("superopt: CEGIS did not converge at length %d", n)
}

func extract(cnf *circuit.CNF, slots []slotHoles, outSel []circuit.Word, inputs, outputs []string) *Sequence {
	seq := &Sequence{Inputs: inputs, Outputs: outputs}
	for _, s := range slots {
		seq.Instrs = append(seq.Instrs, Instr{
			Op:  Opcode(cnf.WordValue(s.op)),
			A:   int(cnf.WordValue(s.a)),
			B:   int(cnf.WordValue(s.bSel)),
			Imm: cnf.WordValue(s.imm),
		})
	}
	for _, o := range outSel {
		seq.OutVals = append(seq.OutVals, int(cnf.WordValue(o)))
	}
	return seq
}

// verifySeq checks the candidate against the spec for all inputs at width
// w via SAT.
func verifySeq(ctx context.Context, prog *ast.Program, seq *Sequence, w word.Width) (interp.Snapshot, bool, bool, error) {
	b := circuit.New()
	a := arith.Circ{B: b, W: w}
	env := arith.NewEnv[circuit.Word]()
	inWords := make([]circuit.Word, len(seq.Inputs))
	for i, f := range seq.Inputs {
		inWords[i] = b.InputWord(w)
		env.Pkt[f] = inWords[i]
	}
	specEnv, err := arith.EvalProgram[circuit.Word](a, prog, env)
	if err != nil {
		return interp.Snapshot{}, false, false, err
	}
	vals := append([]circuit.Word{}, inWords...)
	for _, ins := range seq.Instrs {
		imm := b.ConstWord(ins.Imm, w)
		vals = append(vals, evalInstr[circuit.Word](a, ins.Op, vals[ins.A], vals[ins.B], imm))
	}
	equal := circuit.True
	for i, o := range seq.Outputs {
		equal = b.And(equal, b.EqW(vals[seq.OutVals[i]], specEnv.Pkt[o]))
	}
	solver := sat.New()
	cnf := circuit.NewCNF(b, solver)
	cnf.AssertNot(equal)
	st, timedOut := solveChunked(ctx, solver)
	if timedOut {
		return interp.Snapshot{}, false, true, nil
	}
	if st == sat.Unsat {
		return interp.Snapshot{}, true, false, nil
	}
	cex := interp.NewSnapshot()
	for i, f := range seq.Inputs {
		cex.Pkt[f] = cnf.WordValue(inWords[i])
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

func maxInt(xs ...int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// rng is a tiny splitmix64 so the package does not depend on math/rand
// ordering guarantees.
type rng struct{ s uint64 }

func newRng(seed int64) *rng { return &rng{s: uint64(seed)*2654435769 + 1} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
