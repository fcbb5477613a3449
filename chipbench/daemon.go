package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	chipmunk "repro"
	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/pisa"
	"repro/internal/server"
	"repro/internal/solcache"
)

// Daemon workload shape. The cache holds fewer solutions than there are
// distinct problems, so misses go on after warm-up; the top warmCount
// problems are compiled during set-up.
//
// No record of chipmunkd traffic exists, so the request mix is assumed,
// not measured; each share is the simplest value that serves the
// workload's purpose:
//   - Renamed: each problem has two spellings, the printed mutant and an
//     alpha-renamed copy, and nothing says clients prefer either, so a
//     request takes each with equal probability. Both spellings share one
//     canonical fingerprint, so the share moves no hit or miss; it decides
//     how often a hit's translation onto the request's names is not the
//     identity.
//   - Broken: 1 request in 64 is an unparsable source that must come back
//     400. At about 100 requests/s that is about 30 rejects in a 20 s run,
//     enough for a median reject time, and few enough that the fast 400s
//     barely move request latency.
const (
	daemonMutants = 6        // per light corpus program: 42 distinct problems
	daemonCache   = 16       // solution-cache capacity
	warmCount     = 16       // problems compiled during set-up
	zipfS         = 1.0      // popularity skew over problems
	brokenShare   = 1.0 / 64 // requests sent as unparsable source
	renamedShare  = 0.5      // of the other requests, sent alpha-renamed
)

// problem is one distinct compile problem the daemon is asked for.
type problem struct {
	program string // corpus program name
	bench   chipmunk.Benchmark
	seed    int64  // CEGIS seed
	source  string // mutant rendered with Program.Print
	renamed string // the same program with every variable renamed
	broken  string // source that must not parse
}

func (p problem) request(src string) server.CompileRequest {
	return server.CompileRequest{
		Name:      p.program,
		Source:    src,
		Width:     p.bench.Width,
		MaxStages: p.bench.MaxStages,
		ALU:       p.bench.StatefulALU.String(),
		ConstBits: p.bench.ConstBits,
		Seed:      p.seed,
		Wait:      true,
	}
}

// renameVars returns prog with every packet field and state variable
// renamed, so it shares the original's canonical fingerprint but not its
// names: a cache hit on it goes through the name translation.
func renameVars(prog *ast.Program) *ast.Program {
	p := prog.Clone()
	const suffix = "_r"
	init := map[string]int64{}
	for k, v := range p.Init {
		init[k+suffix] = v
	}
	p.Init = init
	ast.WalkExprs(p.Stmts, func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Field:
			e.Name += suffix
		case *ast.State:
			e.Name += suffix
		}
	})
	forEachAssign(p.Stmts, func(a *ast.Assign) { a.LHS.Name += suffix })
	return p
}

// daemonProblems takes the first daemonMutants inputs of each program from
// corpus_light's fixed set, with their CEGIS seeds. Popularity rank k goes
// to mutant k/7 of program k%7, so the hot ranks spread evenly over the
// programs, whose compile costs differ sixfold.
func daemonProblems() ([]problem, error) {
	cases, err := corpusCases(corpusLight, mutantsPerProgram, "pisa")
	if err != nil {
		return nil, err
	}
	var out []problem
	for m := 0; m < daemonMutants; m++ {
		for p := range corpusLight {
			c := cases[p*mutantsPerProgram+m]
			b, err := chipmunk.BenchmarkByName(c.program)
			if err != nil {
				return nil, err
			}
			src := c.prog.Print()
			out = append(out, problem{
				program: c.program,
				bench:   b,
				seed:    c.opts.Seed,
				source:  src,
				renamed: renameVars(c.prog).Print(),
				broken:  src + "\nif (pkt.",
			})
		}
	}
	return out, nil
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(rng *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, rng.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// daemon is a running in-process chipmunkd on a loopback port.
type daemon struct {
	srv     *server.Server
	cache   *solcache.Cache
	reg     *obs.Registry
	http    *http.Server
	base    string
	served  chan error
	probs   []problem
	clients []*http.Client
	stopped bool
}

func startDaemon() (*daemon, error) {
	probs, err := daemonProblems()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		cache:  solcache.New(daemonCache),
		reg:    obs.NewRegistry(),
		probs:  probs,
		served: make(chan error, 1),
	}
	d.srv = server.New(server.Config{Cache: d.cache, Metrics: d.reg, JobTimeout: compileTimeout})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Shutdown(context.Background())
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.http.Serve(ln) }()
	// One keep-alive connection per client, as `chipmunk -remote` holds.
	for i := 0; i < runtime.NumCPU(); i++ {
		d.clients = append(d.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		}})
	}
	for _, p := range probs[:warmCount] {
		r := d.post(d.clients[0], p.request(p.source))
		if r.err != nil || r.code != http.StatusOK {
			d.stop()
			return nil, fmt.Errorf("warm-up request %s: %v (HTTP %d)", p.program, r.err, r.code)
		}
	}
	return d, nil
}

// stop shuts the HTTP server and the worker pool down and waits for both.
// Stopping twice is a no-op.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 2*compileTimeout)
	defer cancel()
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
	if d.http != nil {
		d.http.Shutdown(ctx)
		if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "chipbench: daemon: %v\n", err)
		}
	}
	d.srv.Shutdown(ctx)
}

// reply is one request's outcome as the client saw it.
type reply struct {
	prob    int
	kind    string // "source", "renamed" or "broken"
	traced  bool   // recorded spans (traced run only)
	src     string
	code    int
	latency time.Duration
	status  server.JobStatus
	err     error
}

func (d *daemon) post(c *http.Client, req server.CompileRequest) reply {
	body, err := json.Marshal(req)
	if err != nil {
		return reply{err: err}
	}
	t0 := time.Now()
	resp, err := c.Post(d.base+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, latency: time.Since(t0)}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{code: resp.StatusCode, latency: time.Since(t0), src: req.Source, err: err}
	if err == nil && resp.StatusCode == http.StatusOK {
		r.err = json.Unmarshal(raw, &r.status)
	}
	return r
}

func runDaemonZipf(rc runConfig) (*outcome, error) {
	st := &setupTimer[*daemon]{build: startDaemon, discard: (*daemon).stop}
	d, err := st.before()
	if err != nil {
		return nil, err
	}
	defer d.stop()

	var bench *obs.Tracer // nil records nothing
	if rc.trace {
		bench = obs.NewTracer()
	}
	var ms0, ms1 runtime.MemStats
	reg0 := d.reg.Snapshot()
	cache0 := d.cache.Stats()
	runtime.ReadMemStats(&ms0)

	z := newZipf(len(d.probs), zipfS)
	replies := make([][]reply, len(d.clients))
	start := time.Now()
	deadline := start.Add(rc.seconds)
	var wg sync.WaitGroup
	for ci := range d.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(rc.seed*1000 + int64(ci)))
			for n := 0; time.Now().Before(deadline); n++ {
				pi := z.draw(rng)
				p := d.probs[pi]
				kind, src := "source", p.source
				switch {
				case rng.Float64() < brokenShare:
					kind, src = "broken", p.broken
				case rng.Float64() < renamedShare:
					kind, src = "renamed", p.renamed
				}
				// In the traced run every other request records spans, so
				// the traced/untraced latency ratio is taken under the
				// same load.
				on := rc.trace && n%2 == 1
				var sp *obs.Span
				if on {
					sp = bench.StartRoot("http.compile", obs.String("program", p.program), obs.String("kind", kind))
				}
				r := d.post(d.clients[ci], p.request(src))
				if on {
					sp.End(obs.Int("code", r.code))
				}
				r.prob, r.kind, r.traced = pi, kind, on
				replies[ci] = append(replies[ci], r)
			}
		}(ci)
	}
	wg.Wait()
	window := time.Since(start)
	runtime.ReadMemStats(&ms1)
	cache1 := d.cache.Stats()
	reg1 := d.reg.Snapshot()

	out := &outcome{metrics: map[string]float64{}}
	chk := newChecker(rc)
	var all, hits, misses, overhead, queueWait, rejects, tracedLat, untracedLat []float64
	alus := map[int]int{}
	checked := map[string]bool{}
	for _, rs := range replies {
		for _, r := range rs {
			out.attempted++
			lat := ms(r.latency)
			all = append(all, lat)
			if r.traced {
				tracedLat = append(tracedLat, lat)
			} else {
				untracedLat = append(untracedLat, lat)
			}
			if err := d.verify(r, chk, checked); err != nil {
				out.fail("%v", err)
				continue
			}
			if r.kind == "broken" {
				rejects = append(rejects, lat)
				continue
			}
			res := r.status.Result
			if res.Cached {
				hits = append(hits, lat)
			} else {
				misses = append(misses, lat)
			}
			overhead = append(overhead, lat-res.ElapsedMS)
			if r.status.Started != nil {
				queueWait = append(queueWait, ms(r.status.Started.Sub(r.status.Queued)))
			}
			if _, seen := alus[r.prob]; !seen {
				alus[r.prob] = res.TotalALUs
			}
		}
	}
	m := out.metrics
	if !rc.trace {
		sum := 0
		for _, a := range alus {
			sum += a
		}
		m["throughput_per_s"] = float64(len(all)) / window.Seconds()
		m["latency_ms_p50"] = median(all)
		m["latency_ms_p90"] = percentile(all, 0.9)
		m["code_size_mean"] = float64(sum) / float64(len(alus))
		m["peak_rss_mb"] = peakRSSMB()
		d.stop()
		if err := st.after(); err != nil {
			return nil, err
		}
		m["setup_s"] = st.seconds()
		return out, nil
	}
	if n := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses); n > 0 {
		m["solcache.hit_ratio"] = float64(cache1.Hits-cache0.Hits) / float64(n)
	}
	m["solcache.hit_ms_p50"] = median(hits)
	m["solcache.miss_ms_p50"] = median(misses)
	m["solcache.shared"] = float64(cache1.Shared - cache0.Shared)
	m["solcache.evictions"] = float64(cache1.Evictions - cache0.Evictions)
	m["server.overhead_ms_p50"] = median(overhead)
	m["server.queue_wait_ms_p99"] = percentile(queueWait, 0.99)
	m["server.request_ms_p99"] = percentile(all, 0.99)
	m["parser.reject_ms_p50"] = median(rejects)
	delta := func(name string) float64 { return snapValue(reg1, name) - snapValue(reg0, name) }
	for metric, counter := range map[string]string{
		"sat.solves": "sat.solves", "sat.conflicts": "sat.conflicts",
		"sat.decisions": "sat.decisions", "sat.propagations": "sat.propagations",
		"cegis.iters": "cegis.iterations", "cegis.tests": "cegis.tests",
		"core.attempts": "core.attempts",
	} {
		m[metric] = delta(counter)
	}
	if solveNS := delta("sat.solve_ns"); solveNS > 0 {
		m["sat.propagations_per_s"] = m["sat.propagations"] / (solveNS / 1e9)
	}
	// The circuit peaks are the registry's maxima over the daemon's life,
	// warm-up compiles included. sketch.hole_bits stays 0: the registry
	// keeps only the last compile's value, not a sum over attempts.
	m["circuit.peak_gates"] = snapValue(reg1, "circuit.gates")
	m["circuit.peak_cnf_vars"] = snapValue(reg1, "cnf.vars")
	m["circuit.peak_cnf_clauses"] = snapValue(reg1, "cnf.clauses")
	m["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	if u := mean(untracedLat); u > 0 {
		m["obs.trace_overhead_ratio"] = mean(tracedLat) / u
	}
	return out, writeSpans(bench, rc.spansOut)
}

// snapValue reads a counter or gauge from a registry snapshot.
func snapValue(snap map[string]any, name string) float64 {
	switch v := snap[name].(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// verify checks one reply: a broken source must come back 400; anything
// else must be a finished, feasible one-stage compile whose configuration
// matches the interpreter on the requested program. Configurations are
// checked once per distinct (source, configuration) pair.
func (d *daemon) verify(r reply, chk *checker, checked map[string]bool) error {
	p := d.probs[r.prob]
	if r.err != nil {
		return fmt.Errorf("%s %s: %v", p.program, r.kind, r.err)
	}
	if r.kind == "broken" {
		if r.code != http.StatusBadRequest {
			return fmt.Errorf("%s broken source: HTTP %d, want 400", p.program, r.code)
		}
		return nil
	}
	if r.code != http.StatusOK || r.status.State != server.StateDone || r.status.Result == nil {
		return fmt.Errorf("%s %s: HTTP %d state %q error %q", p.program, r.kind, r.code, r.status.State, r.status.Error)
	}
	res := r.status.Result
	if !res.Feasible || res.TimedOut || res.Stages != knownStages(p.program) {
		return fmt.Errorf("%s %s: feasible=%v timed_out=%v stages=%d, want feasible at %d",
			p.program, r.kind, res.Feasible, res.TimedOut, res.Stages, knownStages(p.program))
	}
	key := r.src + "\x00" + string(res.Config)
	if checked[key] {
		return nil
	}
	checked[key] = true
	var cfg pisa.Config
	if err := json.Unmarshal(res.Config, &cfg); err != nil {
		return fmt.Errorf("%s %s: decoding config: %v", p.program, r.kind, err)
	}
	prog, err := chipmunk.Parse(p.program, r.src)
	if err != nil {
		return fmt.Errorf("%s %s: %v", p.program, r.kind, err)
	}
	if err := chk.check(prog, &cfg, 1); err != nil {
		return fmt.Errorf("%s %s: %v", p.program, r.kind, err)
	}
	return nil
}
