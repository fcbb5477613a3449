// Command gen writes a synthesis-side CNF of a Table-2 marple_reorder
// compile as DIMACS, for the solver's fixture tests and benchmarks.
//
// It runs counterexample-guided synthesis on a marple_reorder mutant of the
// Table-2 sweep (`evalgen -seed 0`: mutant i of the FNV-1a seeded mutation
// stream, CEGIS seed i, the program's corpus ALUs and PHV width) against a
// PISA grid of -stages stages, and records every clause the synthesis
// encoder hands the solver: the hole domains, the seed tests and each
// counterexample test. By default it writes the formula of the run's last
// synthesis solve; -iter k writes the formula as it stood at iteration k's
// synthesis solve instead. Per-iteration clause and conflict counts go to
// stderr. Run it from the repository root; the committed fixtures were made
// with
//
//	go run ./internal/sat/testdata/cnf/gen -mutant 0 -o internal/sat/testdata/cnf/reorder_d1_m0.cnf
//	go run ./internal/sat/testdata/cnf/gen -mutant 6 -stages 2 -iter 5 -o internal/sat/testdata/cnf/reorder_d2_m6_i5.cnf
//	gzip -9 -n internal/sat/testdata/cnf/reorder_d2_m6_i5.cnf
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"os"

	"repro/internal/alu"
	"repro/internal/backend"
	"repro/internal/cegis"
	"repro/internal/circuit"
	"repro/internal/mutate"
	"repro/internal/parser"
	"repro/internal/pisa"
	"repro/internal/programs"
	"repro/internal/sat"
	"repro/internal/sketch"
)

// recordingBackend wraps a backend so that its sketches record the
// synthesis CNF: AssertDomains is the first clause the CEGIS loop adds to
// the synthesis encoder, so recording from there captures the whole
// formula.
type recordingBackend struct {
	backend.Backend
	f *sat.Formula
}

func (r recordingBackend) NewSketch(b *circuit.Builder, size, nf, ns int) (backend.Sketch, error) {
	sk, err := r.Backend.NewSketch(b, size, nf, ns)
	if err != nil {
		return nil, err
	}
	return recordingSketch{sk, r.f}, nil
}

type recordingSketch struct {
	backend.Sketch
	f *sat.Formula
}

func (r recordingSketch) AssertDomains(cnf *circuit.CNF) {
	cnf.RecordTo(r.f)
	r.Sketch.AssertDomains(cnf)
}

func main() {
	mutant := flag.Int("mutant", 0, "Table-2 marple_reorder mutant index (also the CEGIS seed)")
	stages := flag.Int("stages", 1, "PISA grid depth")
	iter := flag.Int("iter", 0, "write the formula of this iteration's synthesis solve (0 = the last)")
	out := flag.String("o", "", "output DIMACS path (default stdout)")
	flag.Parse()

	bm, err := programs.ByName("marple_reorder")
	if err != nil {
		log.Fatal(err)
	}
	orig, err := parser.Parse(bm.Name, bm.Source)
	if err != nil {
		log.Fatal(err)
	}
	h := fnv.New64a()
	h.Write([]byte(bm.Name))
	muts := mutate.Generate(orig, 10, int64(h.Sum64()&(1<<62-1)))
	if *mutant < 0 || *mutant >= len(muts) {
		log.Fatalf("mutant %d out of range [0, %d)", *mutant, len(muts))
	}
	prog := muts[*mutant].Program

	f := &sat.Formula{}
	be := recordingBackend{sketch.PISABackend{Grid: pisa.GridSpec{
		Width:        bm.Width,
		WordWidth:    10,
		StatelessALU: alu.Stateless{ConstBits: bm.ConstBits},
		StatefulALU:  alu.Stateful{Kind: bm.StatefulALU, ConstBits: bm.ConstBits},
	}}, f}
	// Iteration k's synthesis solve ran on the clauses recorded by the
	// time its event arrives; counterexample tests are added after it.
	cut := map[int]int{}
	outcome := map[int]string{}
	trace := func(ev cegis.Event) {
		if ev.Phase == "synth" {
			cut[ev.Iter] = len(f.Clauses)
			outcome[ev.Iter] = ev.Outcome
			fmt.Fprintf(os.Stderr, "iter %d: %d clauses, %d conflicts, %s\n",
				ev.Iter, len(f.Clauses), ev.SynthConflicts, ev.Outcome)
		}
	}
	res, err := cegis.SynthesizeOn(context.Background(), prog, be, *stages, cegis.Options{Seed: int64(*mutant), Trace: trace})
	if err != nil {
		log.Fatal(err)
	}
	k := *iter
	if k == 0 {
		k = res.Iters
	}
	if _, ok := cut[k]; !ok {
		log.Fatalf("the run has no iteration %d (it took %d)", k, res.Iters)
	}
	g := &sat.Formula{}
	for _, cl := range f.Clauses[:cut[k]] {
		g.AddClause(cl...)
	}
	verdict := map[string]string{"sat": "SAT", "unsat": "UNSAT"}[outcome[k]]

	w := os.Stdout
	if *out != "" {
		if w, err = os.Create(*out); err != nil {
			log.Fatal(err)
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "c marple_reorder Table-2 mutant %d, CEGIS seed %d, %d-stage PISA grid:\n", *mutant, *mutant, *stages)
	fmt.Fprintf(bw, "c synthesis CNF of CEGIS iteration %d of %d, %s\n", k, res.Iters, verdict)
	if err := g.WriteDIMACS(bw); err != nil {
		log.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
}
