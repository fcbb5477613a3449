package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"time"

	chipmunk "repro"
	"repro/internal/alu"
	"repro/internal/obs"
)

// compileTimeout bounds one compile; a compile that hits it counts as
// failed.
const compileTimeout = 60 * time.Second

// compileCase is one compile input: a seeded mutant of a corpus program
// with the options Table 2 compiles it under.
type compileCase struct {
	key     string // "<program>/m<index>"
	program string
	prog    *chipmunk.Program
	opts    chipmunk.Options
	// want is the known minimal size: pipeline stages on pisa, slots on
	// bpf.
	want int
}

// knownStages is the minimal pipeline depth of every corpus program (and
// so of each of its semantics-preserving mutants): one stage, except
// marple_reorder, whose depth-1 grid is proven infeasible.
func knownStages(program string) int {
	if program == "marple_reorder" {
		return 2
	}
	return 1
}

// bpfSlots is marple_new_flow's known minimal slot budget on the bpf
// target.
const bpfSlots = 5

// programSeed is the mutation stream of a program in the Table-2 sweep
// `evalgen` runs at its default seed 0 (eval.Run's derivation: an FNV-1a
// hash of the program name).
func programSeed(program string) int64 {
	h := fnv.New64a()
	h.Write([]byte(program))
	return int64(h.Sum64() & (1<<62 - 1))
}

// corpusCases returns the first `mutants` mutants of each named program in
// the Table-2 sweep at seed 0, with the same CEGIS seeds (the mutant's
// index), compiled for target ("pisa" or "bpf").
//
// The inputs are fixed, not drawn from the run seed, for measured
// reasons. A compile's cost depends mostly on its CEGIS seed and mutant
// (one marple_reorder compile takes 0.07 s to 2.6 s), and the 10 to 350
// compiles that fit in a run do not average that out: drawn inputs gave
// run-to-run spreads of 0.24 (reorder_deep throughput), 0.71 (its p90)
// and 0.33 (corpus_light peak RSS). And some drawn inputs fail: mutant 9
// of chipmunk.Mutate(rcp, 10, 15003+programSeed("rcp")), at CEGIS seed 9,
// exhausts CEGIS's 64-iteration bound. The run seed orders the compiles
// instead.
func corpusCases(programs []string, mutants int, target string) ([]compileCase, error) {
	var cases []compileCase
	for _, name := range programs {
		b, err := chipmunk.BenchmarkByName(name)
		if err != nil {
			return nil, err
		}
		orig, err := chipmunk.Parse(b.Name, b.Source)
		if err != nil {
			return nil, err
		}
		for i, m := range chipmunk.Mutate(orig, mutants, programSeed(name)) {
			opts, want := tableOptions(b, int64(i), target)
			cases = append(cases, compileCase{
				key:     fmt.Sprintf("%s/m%02d", name, i),
				program: name,
				prog:    m.Program,
				opts:    opts,
				want:    want,
			})
		}
	}
	return cases, nil
}

// tableOptions are the options Table 2 compiles a corpus program under, at
// a CEGIS seed, for target; want is the known minimal size.
func tableOptions(b chipmunk.Benchmark, seed int64, target string) (opts chipmunk.Options, want int) {
	opts = chipmunk.Options{
		Width:        b.Width,
		MaxStages:    b.MaxStages,
		StatelessALU: alu.Stateless{ConstBits: b.ConstBits},
		StatefulALU:  alu.Stateful{Kind: b.StatefulALU, ConstBits: b.ConstBits},
		Seed:         seed,
	}
	if target == "bpf" {
		opts.Target = "bpf"
		opts.MaxStages = bpfSlots
		opts.FixedStages = true
		return opts, bpfSlots
	}
	return opts, knownStages(b.Name)
}

// compileWorkload compiles a fixed input set, ten mutants per program, in
// rounds, one compile at a time with the cache off.
type compileWorkload struct {
	programs []string
	target   string
}

// corpusLight is every Table 2 program but marple_reorder: about half of
// its compile time is spent outside the SAT solver.
var corpusLight = []string{
	"rcp", "stateful_fw", "sampling", "blue_increase", "blue_decrease",
	"flowlet", "marple_new_flow",
}

func runCorpusLight(rc runConfig) (*outcome, error) {
	return compileWorkload{programs: corpusLight, target: "pisa"}.run(rc)
}

func runReorderDeep(rc runConfig) (*outcome, error) {
	return compileWorkload{programs: []string{"marple_reorder"}, target: "pisa"}.run(rc)
}

func runBPFNewFlow(rc runConfig) (*outcome, error) {
	return compileWorkload{programs: []string{"marple_new_flow"}, target: "bpf"}.run(rc)
}

// inOrder returns a copy of cases in the order of round r of a run at
// seed.
func inOrder(cases []compileCase, seed int64, r int) []compileCase {
	out := append([]compileCase(nil), cases...)
	rng := rand.New(rand.NewSource(seed*1000 + int64(r)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mutantsPerProgram matches Table 2's ten mutants per program.
const mutantsPerProgram = 10

// effortKey is what must repeat exactly every time one input is compiled
// again at the same seed (the determinism guard).
type effortKey struct {
	iters               int
	conflicts, props    int64
	codeSize, finalSize int
}

// compiled is one finished compile, checked; err is why it failed.
type compiled struct {
	rep *chipmunk.Report
	dur time.Duration
	key effortKey
	err error
}

// compileOnce compiles c, timing only chipmunk.Compile.
// spans carries the benchmark's own tracer and parent span; without a
// tracer it records nothing.
func compileOnce(ctx, spans context.Context, c compileCase) compiled {
	ctx, cancel := context.WithTimeout(ctx, compileTimeout)
	defer cancel()
	_, sp := obs.StartSpan(spans, "chipmunk.Compile", obs.String("key", c.key))
	t0 := time.Now()
	rep, err := chipmunk.Compile(ctx, c.prog, c.opts)
	out := compiled{rep: rep, dur: time.Since(t0), err: err}
	sp.End()
	return out
}

// check fills in the effort key and checks the verdict, the size and the
// configuration against the interpreter.
func (r *compiled) check(spans context.Context, c compileCase, chk *checker) {
	switch {
	case r.err != nil:
		r.err = fmt.Errorf("%s: compile error: %w", c.key, r.err)
		return
	case r.rep.TimedOut:
		r.err = fmt.Errorf("%s: timed out", c.key)
		return
	case !r.rep.Feasible:
		r.err = fmt.Errorf("%s: infeasible, want feasible at size %d", c.key, c.want)
		return
	}
	e := r.rep.Effort()
	r.key = effortKey{iters: e.Iters, conflicts: e.Conflicts, props: e.Propagations,
		codeSize: codeSize(r.rep.Artifact), finalSize: artifactSize(r.rep.Artifact)}
	if r.key.finalSize != c.want {
		r.err = fmt.Errorf("%s: size %d, want minimal size %d", c.key, r.key.finalSize, c.want)
		return
	}
	_, sp := obs.StartSpan(spans, "check.interp")
	if err := chk.check(c.prog, r.rep.Artifact, c.opts.Seed); err != nil {
		r.err = fmt.Errorf("%s: %w", c.key, err)
	}
	sp.End()
}

// compileAndCheck compiles c once, timing only the compile, then checks
// the result.
func compileAndCheck(ctx, spans context.Context, c compileCase, chk *checker) compiled {
	r := compileOnce(ctx, spans, c)
	r.check(spans, c, chk)
	return r
}

// setups generates the inputs and warms the runtime with one compile of a
// fixed, cheap input: the unmutated sampling program on pisa, on every
// target. A bpf warm-up (marple_new_flow, 0.6 to 1.0 s) made
// bpf_new_flow's setup_s the time of one more compile, with a spread of
// 0.21 over five seeds.
func (w compileWorkload) setups() *setupTimer[[]compileCase] {
	build := func() ([]compileCase, error) {
		cases, err := corpusCases(w.programs, mutantsPerProgram, w.target)
		if err != nil {
			return nil, err
		}
		wc, err := corpusCases([]string{"sampling"}, 1, "pisa")
		if err != nil {
			return nil, err
		}
		if _, err := chipmunk.Compile(context.Background(), wc[0].prog, wc[0].opts); err != nil {
			return nil, fmt.Errorf("warm-up compile: %w", err)
		}
		return cases, nil
	}
	return &setupTimer[[]compileCase]{build: build, discard: func([]compileCase) {}}
}

// run makes whole rounds while another is expected to fit in the window,
// and at least one, so every run weighs its inputs equally. An input
// compiled again must repeat its solver counters and code size exactly
// (the determinism guard). Between compiles the set-up is built again,
// outside the window's time, whenever set-ups in the window have taken
// less than setupShare of it so far.
func (w compileWorkload) run(rc runConfig) (*outcome, error) {
	st := w.setups()
	cases, err := st.before()
	if err != nil {
		return nil, err
	}
	if rc.trace {
		return tracedCompile(rc, inOrder(cases, rc.seed, 0))
	}
	out := &outcome{metrics: map[string]float64{}}
	chk := newChecker(rc)
	guard := map[string]effortKey{}
	var lat []float64
	var busy, setupTime time.Duration
	sizeSum, sized := 0, 0
	start := time.Now()
	window := func() time.Duration { return time.Since(start) - setupTime }
	for r := 0; ; r++ {
		roundStart := window()
		for _, c := range inOrder(cases, rc.seed, r) {
			res := compileAndCheck(context.Background(), context.Background(), c, chk)
			out.attempted++
			lat = append(lat, ms(res.dur))
			busy += res.dur
			if res.err != nil {
				out.fail("%v", res.err)
			} else {
				sizeSum += res.key.codeSize
				sized++
				if g, ok := guard[c.key]; !ok {
					guard[c.key] = res.key
				} else if g != res.key {
					out.problem("determinism guard: %s round %d gave %+v, first compile gave %+v", c.key, r, res.key, g)
				}
			}
			for float64(setupTime) < setupShare*float64(window()) {
				_, d, err := st.once()
				if err != nil {
					return nil, err
				}
				setupTime += d
			}
		}
		if now := window(); now+(now-roundStart) > rc.seconds {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "chipbench: %d compiles in %.1f s\n", len(lat), window().Seconds())
	out.metrics["throughput_per_s"] = float64(len(lat)) / busy.Seconds()
	out.metrics["latency_ms_p50"] = median(lat)
	out.metrics["latency_ms_p90"] = percentile(lat, 0.9)
	if sized > 0 {
		out.metrics["code_size_mean"] = float64(sizeSum) / float64(sized)
	}
	out.metrics["peak_rss_mb"] = peakRSSMB()
	out.metrics["setup_s"] = st.seconds()
	return out, nil
}

// tracedCompile makes one pass over the inputs, compiling each twice in a
// row: untraced (timed, with allocation counted) and then traced, with a
// span tracer and a metrics registry in the context. The two compiles of
// one input must agree exactly on their solver counters. The benchmark's
// own spans go to a separate tracer, so each compile's tracer holds only
// that compile's spans for Tracer.Profile.
func tracedCompile(rc runConfig, cases []compileCase) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	chk := newChecker(rc)
	bench := obs.NewTracer()
	spans := obs.ContextWithTracer(context.Background(), bench)
	m := out.metrics
	var untracedSum, tracedSum time.Duration
	var ms0, ms1 runtime.MemStats
	perProgLat := map[string][]float64{}
	var solveMS float64
	for _, c := range cases {
		runtime.ReadMemStats(&ms0)
		u := compileOnce(context.Background(), context.Background(), c)
		runtime.ReadMemStats(&ms1)
		u.check(context.Background(), c, chk)
		out.attempted++
		m["runtime.alloc_mb"] += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		m["runtime.gc_cycles"] += float64(ms1.NumGC - ms0.NumGC)
		untracedSum += u.dur
		perProgLat[c.program] = append(perProgLat[c.program], ms(u.dur))
		if u.err != nil {
			out.fail("%v", u.err)
			continue
		}

		caseSpans, root := obs.StartSpan(spans, "compile_case", obs.String("key", c.key))
		tr := chipmunk.NewTracer()
		reg := chipmunk.NewMetrics()
		ctx := chipmunk.WithMetrics(chipmunk.WithTracer(context.Background(), tr), reg)
		t := compileAndCheck(ctx, caseSpans, c, chk)
		out.attempted++
		tracedSum += t.dur
		if t.err != nil {
			root.End()
			out.fail("%v", t.err)
			continue
		}
		if t.key != u.key {
			out.problem("determinism guard: %s traced gave %+v, untraced gave %+v", c.key, t.key, u.key)
		}
		p, err := tr.Profile()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.key, err)
		}
		root.End(obs.Float("solve_synth_ms", p.SolveSynthMS), obs.Float("solve_verify_ms", p.SolveVerifyMS),
			obs.Float("encode_ms", p.EncodeMS), obs.Float("other_ms", p.OtherMS))
		addProfile(m, p, reg)
		solveMS += p.SolveMS
		holeBits := 0
		for _, d := range t.rep.Depths {
			holeBits += d.HoleBits
		}
		m["sketch.hole_bits"] += float64(holeBits)
		m["program."+c.program+".conflicts"] += float64(p.Conflicts)
	}
	n := float64(len(cases))
	for _, k := range []string{"sat.solve_synth_ms", "sat.solve_verify_ms", "cegis.encode_ms", "core.other_ms"} {
		m[k] /= n
	}
	if solveMS > 0 {
		m["sat.propagations_per_s"] = m["sat.propagations"] / (solveMS / 1e3)
	}
	for prog, lat := range perProgLat {
		m["program."+prog+".compile_ms_p50"] = median(lat)
	}
	if untracedSum > 0 {
		m["obs.trace_overhead_ratio"] = tracedSum.Seconds() / untracedSum.Seconds()
	}
	return out, writeSpans(bench, rc.spansOut)
}

// addProfile accumulates one traced compile's span-tree profile and
// metrics registry into the per-layer metrics: times as sums (averaged by
// the caller), counts as sums, peaks as maxima.
func addProfile(m map[string]float64, p obs.CompileProfile, reg *chipmunk.Metrics) {
	m["sat.solve_synth_ms"] += p.SolveSynthMS
	m["sat.solve_verify_ms"] += p.SolveVerifyMS
	m["cegis.encode_ms"] += p.EncodeMS
	m["core.other_ms"] += p.OtherMS
	m["sat.solves"] += float64(p.Solves)
	m["sat.conflicts"] += float64(p.Conflicts)
	m["sat.decisions"] += float64(p.Decisions)
	m["sat.propagations"] += float64(p.Propagations)
	m["cegis.iters"] += float64(p.Iters)
	m["core.attempts"] += float64(reg.Counter("core.attempts").Value())
	m["cegis.tests"] += float64(reg.Counter("cegis.tests").Value())
	for name, gauge := range map[string]string{
		"circuit.peak_gates":       "circuit.gates",
		"circuit.peak_cnf_vars":    "cnf.vars",
		"circuit.peak_cnf_clauses": "cnf.clauses",
	} {
		if v := float64(reg.Gauge(gauge).Value()); v > m[name] {
			m[name] = v
		}
	}
}
