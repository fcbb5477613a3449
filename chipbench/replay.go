package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	chipmunk "repro"
	"repro/internal/interp"
	"repro/internal/linerate"
	"repro/internal/obs"
	"repro/internal/pisa"
	"repro/internal/word"
)

// Replay trace shape. 2^18 flows give about 12 MB of per-flow replay state
// (state vector, slice header and checksum per flow), three times a 4 MiB
// L2, while Zipf skew keeps the hot flows cached. The interpreter checks
// each engine on a prefix of the trace.
const (
	replayFlows   = 1 << 18
	replayPackets = 1 << 18
	replayZipfS   = 1.0
	refPrefix     = 1 << 13
	maxFields     = 3 // the widest corpus program (flowlet) has 3 fields
)

// replayEngine is one corpus original compiled to a config and then to a
// line-rate engine, with the trace laid out for its field count.
type replayEngine struct {
	program string
	prog    *chipmunk.Program
	cfg     *pisa.Config
	engine  *linerate.Engine
	vals    []uint64 // row-major packets x NumFields
}

type replayEnv struct {
	engines     []replayEngine
	flows       []int
	generateS   float64
	compileMS   []float64
	codeSizeSum int
}

// genTrace draws the flow of each packet from a Zipf distribution (inverse
// CDF by binary search) and its field values uniformly at the datapath
// width, one column per field slot.
func genTrace(rng *rand.Rand, w word.Width) (flows []int, cols [maxFields][]uint64) {
	z := newZipf(replayFlows, replayZipfS)
	flows = make([]int, replayPackets)
	for i := range flows {
		flows[i] = z.draw(rng)
	}
	for c := range cols {
		cols[c] = make([]uint64, replayPackets)
		for i := range cols[c] {
			cols[c][i] = randWord(rng, w)
		}
	}
	return flows, cols
}

// setupReplay compiles the eight corpus originals, specializes each config
// into an engine, and generates the trace.
func setupReplay(rc runConfig) (*replayEnv, error) {
	env := &replayEnv{}
	chk := newChecker(rc)
	var width word.Width
	for _, b := range chipmunk.Corpus() {
		orig, err := chipmunk.Parse(b.Name, b.Source)
		if err != nil {
			return nil, err
		}
		opts, _ := tableOptions(b, 0, "pisa")
		rep, err := chipmunk.Compile(context.Background(), orig, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		if !rep.Feasible || rep.Config == nil {
			return nil, fmt.Errorf("%s: no configuration (timed out: %v)", b.Name, rep.TimedOut)
		}
		env.codeSizeSum += codeSize(rep.Config)
		cfg := chk.maybeCorrupt(rep.Config)
		t0 := time.Now()
		e, err := linerate.Compile(cfg)
		env.compileMS = append(env.compileMS, ms(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		env.engines = append(env.engines, replayEngine{program: b.Name, prog: orig, cfg: cfg, engine: e})
		width = cfg.Grid.WordWidth
	}
	t0 := time.Now()
	flows, cols := genTrace(rand.New(rand.NewSource(rc.seed)), width)
	env.flows = flows
	for i := range env.engines {
		e := &env.engines[i]
		nf := e.engine.NumFields()
		e.vals = make([]uint64, replayPackets*nf)
		for p := 0; p < replayPackets; p++ {
			for f := 0; f < nf; f++ {
				e.vals[p*nf+f] = cols[f][p]
			}
		}
	}
	env.generateS = time.Since(t0).Seconds()
	return env, nil
}

func runReplayZipf(rc runConfig) (*outcome, error) {
	st := &setupTimer[*replayEnv]{build: func() (*replayEnv, error) { return setupReplay(rc) },
		discard: func(*replayEnv) {}}
	env, err := st.before()
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	var bench *obs.Tracer // nil records nothing
	if rc.trace {
		bench = obs.NewTracer()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Cycle through the engines, one whole-trace replay per operation,
	// until the window closes. Each engine's checksum must repeat.
	sums := map[int]uint64{}
	var lat, tracedLat, untracedLat []float64
	var busy time.Duration
	packets := 0
	start := time.Now()
	for op := 0; time.Since(start) < rc.seconds; op++ {
		i := op % len(env.engines)
		e := &env.engines[i]
		on := rc.trace && (op/len(env.engines))%2 == 1
		var sp *obs.Span
		if on {
			sp = bench.StartRoot("linerate.Replay", obs.String("program", e.program))
		}
		t0 := time.Now()
		res := linerate.Replay(e.engine, env.flows, e.vals, replayFlows)
		d := time.Since(t0)
		if on {
			sp.End(obs.Int("packets", res.Packets))
		}
		out.attempted++
		lat = append(lat, ms(d))
		if on {
			tracedLat = append(tracedLat, ms(d))
		} else {
			untracedLat = append(untracedLat, ms(d))
		}
		busy += d
		packets += res.Packets
		if first, ok := sums[i]; !ok {
			sums[i] = res.Checksum
		} else if first != res.Checksum {
			out.fail("%s: replay checksum %x, first replay gave %x", e.program, res.Checksum, first)
		}
	}
	runtime.ReadMemStats(&ms1)

	for i := range env.engines {
		out.attempted++
		if err := checkReplay(&env.engines[i], env.flows); err != nil {
			out.fail("%v", err)
		}
	}
	m := out.metrics
	if !rc.trace {
		m["throughput_per_s"] = float64(packets) / busy.Seconds()
		m["latency_ms_p50"] = median(lat)
		m["latency_ms_p90"] = percentile(lat, 0.9)
		m["code_size_mean"] = float64(env.codeSizeSum) / float64(len(env.engines))
		m["peak_rss_mb"] = peakRSSMB()
		if err := st.after(); err != nil {
			return nil, err
		}
		m["setup_s"] = st.seconds()
		return out, nil
	}
	m["linerate.compile_ms"] = mean(env.compileMS)
	m["linerate.ns_per_pkt"] = float64(busy.Nanoseconds()) / float64(packets)
	m["runtime.alloc_bytes_per_pkt"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(packets)
	m["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["workload.generate_s"] = env.generateS
	if u := mean(untracedLat); u > 0 && len(tracedLat) > 0 {
		m["obs.trace_overhead_ratio"] = mean(tracedLat) / u
	}
	return out, writeSpans(bench, rc.spansOut)
}

// checkReplay replays the trace prefix through the engine and through the
// interpreter on the original program, folding outputs into per-flow
// checksums exactly as linerate.Replay documents (each flow's output
// fields in order, then its final state; flows XORed together).
func checkReplay(e *replayEngine, flows []int) error {
	nf := e.engine.NumFields()
	got := linerate.Replay(e.engine, flows[:refPrefix], e.vals[:refPrefix*nf], replayFlows)

	in, err := interp.New(e.cfg.Grid.WordWidth)
	if err != nil {
		return err
	}
	fields, states := e.engine.Fields(), e.engine.States()
	flowState := map[int]map[string]uint64{}
	flowSum := map[int]uint64{}
	for i, f := range flows[:refPrefix] {
		st, ok := flowState[f]
		if !ok {
			st = map[string]uint64{}
			for _, s := range states {
				st[s] = 0 // engines start every flow at zero state
			}
		}
		snap := interp.Snapshot{Pkt: map[string]uint64{}, State: st}
		for k, name := range fields {
			snap.Pkt[name] = e.vals[i*nf+k]
		}
		outSnap, err := in.Run(e.prog, snap)
		if err != nil {
			return err
		}
		c := flowSum[f]
		for _, name := range fields {
			c = checksumMix(c, outSnap.Pkt[name])
		}
		flowSum[f] = c
		flowState[f] = outSnap.State
	}
	var want uint64
	for f, c := range flowSum {
		for _, s := range states {
			c = checksumMix(c, flowState[f][s])
		}
		want ^= c
	}
	if got.Checksum != want {
		return fmt.Errorf("%s: engine checksum %x over %d packets, interpreter gives %x", e.program, got.Checksum, refPrefix, want)
	}
	return nil
}

// checksumMix is linerate.Replay's documented per-flow fold.
func checksumMix(c, v uint64) uint64 { return c*0x9E3779B97F4A7C15 + (v + 1) }
