// Command chipbench is the repository benchmark: it runs one workload
// against the public entry points of the compiler (chipmunk.Compile), the
// compile daemon (server.New(...).Handler() over loopback HTTP) and the
// line-rate engine (linerate.Compile, linerate.Replay), checks every
// output against the reference interpreter (internal/interp), and prints
// one JSON result line.
//
// Usage, from the repository root:
//
//	bash chipbench/run.sh --workload corpus_light --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced run reports the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	chipmunk "repro"
	"repro/internal/obs"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics every untraced run reports, on every
// workload. The names are workload-neutral because the result format
// requires one metric set for all workloads; README.md maps each onto the
// workload's own quantity (compiles, daemon requests, replayed packets).
var endToEnd = []struct{ name, unit string }{
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"code_size_mean", "count"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics every traced run reports, on every workload.
// A layer the workload does not exercise reads zero.
var perLayer = func() []struct{ name, unit string } {
	l := []struct{ name, unit string }{
		{"sat.solve_synth_ms", "ms"},
		{"sat.solve_verify_ms", "ms"},
		{"sat.propagations_per_s", "1/s"},
		{"sat.solves", "count"},
		{"sat.conflicts", "count"},
		{"sat.decisions", "count"},
		{"sat.propagations", "count"},
		{"cegis.encode_ms", "ms"},
		{"core.other_ms", "ms"},
		{"cegis.tests", "count"},
		{"circuit.peak_gates", "count"},
		{"circuit.peak_cnf_vars", "count"},
		{"circuit.peak_cnf_clauses", "count"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cycles", "count"},
		{"cegis.iters", "count"},
		{"core.attempts", "count"},
		{"sketch.hole_bits", "count"},
		{"solcache.hit_ratio", "ratio"},
		{"solcache.hit_ms_p50", "ms"},
		{"solcache.miss_ms_p50", "ms"},
		{"solcache.shared", "count"},
		{"solcache.evictions", "count"},
		{"server.overhead_ms_p50", "ms"},
		{"server.queue_wait_ms_p99", "ms"},
		{"server.request_ms_p99", "ms"},
		{"parser.reject_ms_p50", "ms"},
		{"linerate.compile_ms", "ms"},
		{"linerate.ns_per_pkt", "ns"},
		{"runtime.alloc_bytes_per_pkt", "B"},
		{"workload.generate_s", "s"},
		{"obs.trace_overhead_ratio", "ratio"},
		{"failed_ratio", "ratio"},
	}
	// One row per Table 2 program; zero for programs the workload does
	// not compile.
	for _, b := range chipmunk.Corpus() {
		l = append(l,
			struct{ name, unit string }{"program." + b.Name + ".compile_ms_p50", "ms"},
			struct{ name, unit string }{"program." + b.Name + ".conflicts", "count"})
	}
	return l
}()

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// corrupt makes the reference checker corrupt the first PISA
	// configuration it is handed, so a test can show the output check is
	// not vacuous. Never set by the command line.
	corrupt bool
	// spansOut, when non-empty, receives the traced run's spans as JSONL.
	spansOut string
}

// outcome is what a workload run reports back to main.
type outcome struct {
	attempted, failed int
	// problems lists why the run is not correct (failed checks,
	// determinism-guard mismatches); empty when correct.
	problems []string
	metrics  map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problem(format, args...)
}

// problem records a reason the run is incorrect without counting an
// operation as failed (a determinism-guard mismatch, say).
func (o *outcome) problem(format string, args ...any) {
	const keep = 20
	if len(o.problems) < keep {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(rc runConfig) (*outcome, error)
	// singleThreaded workloads run with GOMAXPROCS=1. Their measured work
	// (one compile or one replay at a time) is single-threaded, and on a
	// 2-vCPU host a second P ties the run to contention on the other vCPU
	// through the garbage collector: over eight interleaved corpus_light
	// runs, throughput spread 0.13 at GOMAXPROCS=2 and 0.02 at 1.
	singleThreaded bool
}

var workloads = []workload{
	{"corpus_light", runCorpusLight, true},
	{"reorder_deep", runReorderDeep, true},
	{"bpf_new_flow", runBPFNewFlow, true},
	{"daemon_zipf", runDaemonZipf, false},
	{"replay_zipf", runReplayZipf, true},
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "chipbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if rc.trace {
		rc.spansOut = fmt.Sprintf(".bench_build/spans/%s_seed%d.jsonl", w.name, *seed)
	}
	res, err := execute(*w, rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chipbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chipbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload and shapes its outcome into the result line:
// exactly the end-to-end metrics untraced, exactly the per-layer metrics
// traced.
func execute(w workload, rc runConfig) (*result, error) {
	if w.singleThreaded {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	out, err := w.run(rc)
	if err != nil {
		return nil, err
	}
	if out.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	names := endToEnd
	if rc.trace {
		names = perLayer
		out.metrics["failed_ratio"] = float64(out.failed) / float64(out.attempted)
	}
	res := &result{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range names {
		res.Metrics[m.name] = metric{Value: out.metrics[m.name], Unit: m.unit}
	}
	for name := range out.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("workload reported unlisted metric %q", name)
		}
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "chipbench: %s: check failed: %s\n", w.name, p)
	}
	return res, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// writeSpans stores the benchmark's spans, kept in memory by tr during the
// run, as JSON lines at path. A nil tracer (an untraced run) writes
// nothing.
func writeSpans(tr *obs.Tracer, path string) error {
	if tr == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rec := range tr.Records() {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
