package cegis

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/alu"
	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/interp"
	"repro/internal/pisa"
	"repro/internal/programs"
	"repro/internal/sat"
	"repro/internal/sketch"
)

// encodingCase is one corpus program at its Table-2 PHV width and the
// smallest stage count that compiles it (Figure 5: one stage for every
// program but marple_reorder, which needs two).
type encodingCase struct {
	bm     programs.Benchmark
	prog   *ast.Program
	stages int
}

func encodingCases() []encodingCase {
	var out []encodingCase
	for _, bm := range programs.Corpus() {
		stages := 1
		if bm.Name == "marple_reorder" {
			stages = 2
		}
		out = append(out, encodingCase{bm: bm, prog: bm.Parse(), stages: stages})
	}
	return out
}

// encodeSeedTests replays the encoding a counterexample-mode CEGIS run
// with seed 1 performs before its first solve: the PISA sketch, its hole
// domains, the all-zero test and two random tests at the synthesis width.
// A non-nil f records every clause handed to the solver.
func encodeSeedTests(tb testing.TB, c encodingCase, f *sat.Formula) (backend.Sketch, *circuit.CNF) {
	tb.Helper()
	be := sketch.PISABackend{Grid: pisa.GridSpec{
		Width:        c.bm.Width,
		WordWidth:    DefaultVerifyWidth,
		StatelessALU: alu.Stateless{ConstBits: c.bm.ConstBits},
		StatefulALU:  alu.Stateful{Kind: c.bm.StatefulALU, ConstBits: c.bm.ConstBits},
	}}
	vars := c.prog.Variables()
	b := circuit.New()
	sk, err := be.NewSketch(b, c.stages, len(vars.Fields), len(vars.States))
	if err != nil {
		tb.Fatal(err)
	}
	cnf := circuit.NewCNF(b, sat.New())
	if f != nil {
		cnf.RecordTo(f)
	}
	sk.AssertDomains(cnf)
	w := DefaultSynthWidth
	if mw := sk.MinWidth(); w < mw {
		w = mw
	}
	rng := rand.New(rand.NewSource(1))
	tests := []interp.Snapshot{interp.NewSnapshot(),
		randomSnapshot(rng, w, vars.Fields, vars.States),
		randomSnapshot(rng, w, vars.Fields, vars.States)}
	for _, x := range tests {
		if err := encodeTest(b, sk, cnf, c.prog, vars.Fields, vars.States, x, w); err != nil {
			tb.Fatal(err)
		}
	}
	return sk, cnf
}

// encodeVerify builds the verification miter of cfg against c's program at
// the default verification width into a fresh builder and solver, as
// verify does, recording into a non-nil f.
func encodeVerify(c encodingCase, cfg backend.Config, f *sat.Formula) {
	vars := c.prog.Variables()
	b := circuit.New()
	_, _, equal := encodeMiter(b, c.prog, cfg, vars.Fields, vars.States, DefaultVerifyWidth)
	cnf := circuit.NewCNF(b, sat.New())
	if f != nil {
		cnf.RecordTo(f)
	}
	cnf.AssertNot(equal)
}

// zeroConfig decodes the candidate whose every hole is zero: Extract reads
// bits of an unsolved encoding as false. It keeps the verify-side pin
// independent of the solver's search.
func zeroConfig(c encodingCase, sk backend.Sketch, cnf *circuit.CNF) backend.Config {
	vars := c.prog.Variables()
	return sk.Extract(cnf, vars.Fields, vars.States, DefaultVerifyWidth)
}

func dimacsDigest(t *testing.T, f *sat.Formula) string {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestEncodingStreamPinned pins the exact clause stream the encoder hands
// the solver, as the SHA-256 of its DIMACS rendering, for every corpus
// program: the synthesis side (domains plus the seed tests) and the
// verification miter of the all-zero candidate. Gate numbering sets
// operand order in And/Xor and so the variable numbering and clause order
// of the Tseitin encoding; a change to the builder that renumbers gates
// changes the search even when every formula stays equivalent. This is
// the encoder-side counterpart of internal/sat's TestFixtureTrajectoryPinned.
// A deliberate change to the encoding must re-pin these digests and show
// its effect on the solver-effort counters.
func TestEncodingStreamPinned(t *testing.T) {
	want := map[string][2]string{ // program: synthesis, verification
		"rcp":             {"1b61ce2de0ab942dc69d14750892731cbd36915ca6cc74644f19a161f286040e", "f0a602caae91cfdcc4fc5cc9df0e56c0e2e68eee10e1162a3a62870e93f7e1e3"}, // 5716 + 753 clauses
		"stateful_fw":     {"1c4d0c3d7e47e6a5e9fbb9f65614f81f51117370797ed02af1fef813307325cf", "c1822ba25d84e283ebf7300952c20268d2f341babc8216a2b27bc995f0fabf95"}, // 3930 + 170 clauses
		"sampling":        {"592a063bdc2051689850fb52b749b99e1404dbf66753d1bfcd4154d009562189", "404aae8d17dbee1b7df19ffb31e88c901e0c8070f9f091016429faf1bf24e118"}, // 3553 + 199 clauses
		"blue_increase":   {"16054322369ceb9d42723a16ff73c9d19ac420785d3259d3e5e5029394b1a363", "debc2e21b41d2bf1c7edaf89694e0f62a9b669faad4ca5b51b0e45e3e2555231"}, // 7093 + 524 clauses
		"blue_decrease":   {"16054322369ceb9d42723a16ff73c9d19ac420785d3259d3e5e5029394b1a363", "4871e1f6698f02ebdd514efc0151a37a63444585540143bf69fea4aa60180f29"}, // 7093 + 548 clauses
		"flowlet":         {"6ccb2c0740e152e0419b6622174c72341e0cdc02f6785d93c836249148375246", "f47431d5d84a433e7035946401cff19daf86e02fdb03f67e2cfc2994d2ce42a5"}, // 11658 + 454 clauses
		"marple_new_flow": {"acfab9e4ad1d19f688b75ee4be9500ba42fd0fa9880d2bb07618f474fbf3d02b", "a415fbdc6f60c287c01ad7aacd1a43492ed560448f7791587bf7ba3ec11990d3"}, // 2949 + 140 clauses
		"marple_reorder":  {"6090cee1b4d38216dd941ecc38d124f972675f0f6586a7188f6cbf6953d080df", "8c0f95f0f1d0492d7d54a899f77f3c0c071ccde1e29e4116aad7b378e36f4cdf"}, // 10387 + 276 clauses
	}
	for _, c := range encodingCases() {
		t.Run(c.bm.Name, func(t *testing.T) {
			synthF := &sat.Formula{}
			sk, cnf := encodeSeedTests(t, c, synthF)
			verifyF := &sat.Formula{}
			encodeVerify(c, zeroConfig(c, sk, cnf), verifyF)
			got := [2]string{dimacsDigest(t, synthF), dimacsDigest(t, verifyF)}
			if got != want[c.bm.Name] {
				t.Errorf("clause stream digests = %v, want %v", got, want[c.bm.Name])
			}
		})
	}
}

// BenchmarkEncodeTests times the synthesis-side encoding a CEGIS run does
// before its first solve: sketch construction, hole domains, and the
// Instantiate plus CNF.Assert of the three seed tests.
func BenchmarkEncodeTests(b *testing.B) {
	for _, c := range encodingCases() {
		b.Run(c.bm.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encodeSeedTests(b, c, nil)
			}
		})
	}
}

// BenchmarkVerifyEncode times one verification query's encoding: the
// miter of a candidate against the specification, bit-blasted into a
// fresh solver.
func BenchmarkVerifyEncode(b *testing.B) {
	for _, c := range encodingCases() {
		b.Run(c.bm.Name, func(b *testing.B) {
			sk, cnf := encodeSeedTests(b, c, nil)
			cfg := zeroConfig(c, sk, cnf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encodeVerify(c, cfg, nil)
			}
		})
	}
}
