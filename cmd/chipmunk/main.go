// Command chipmunk compiles a Domino packet-transaction program onto a
// simulated PISA pipeline using program synthesis (the paper's §3).
//
// Usage:
//
//	chipmunk [flags] program.domino
//
// The program is read from the named file, or from standard input when no
// file is given. On success the synthesized hardware configuration is
// printed (or dumped as JSON with -json) together with Figure 5's resource
// metrics; on failure the tool reports whether the program is infeasible on
// the requested grid or the compile timed out. With -explain, an
// infeasible verdict is followed by a forensics report naming the binding
// resource dimension and the minimal set of blamed constraint groups.
//
// Exit codes:
//
//	0  compiled successfully
//	1  usage or internal error (bad flags, unreadable file, parse error)
//	2  the compile timed out before reaching a verdict
//	3  the program is infeasible on the requested machine
//
// Example:
//
//	chipmunk -width 2 -alu if_else_raw -max-stages 3 sampling.domino
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/alu"
	"repro/internal/bpf"
	"repro/internal/cegis"
	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/sat"
	"repro/internal/server"
	"repro/internal/solcache"
	"repro/internal/word"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chipmunk:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		target      = flag.String("target", "pisa", "compile target: pisa (grid pipeline) or bpf (register machine)")
		width       = flag.Int("width", 2, "pipeline width (PHV containers / ALUs per stage); pisa only")
		maxStages   = flag.Int("max-stages", 4, "maximum pipeline stages (pisa) or instruction slots (bpf) for iterative deepening")
		opcodeMask  = flag.Uint64("bpf-opcode-mask", 0, "bpf only: bitmask over bpf.Opcode restricting the machine's opcode vocabulary (0 = full ISA)")
		aluKind     = flag.String("alu", "if_else_raw", "stateful ALU template: counter, pred_raw, if_else_raw, sub, nested_ifs, pair")
		constBits   = flag.Int("const-bits", alu.DefaultConstBits, "immediate-operand hole width in bits")
		synthWidth  = flag.Int("synth-width", 4, "datapath bit width for the synthesis phase")
		verifyWidth = flag.Int("verify-width", 10, "datapath bit width for the verification phase")
		timeout     = flag.Duration("timeout", 2*time.Minute, "compile timeout")
		indicator   = flag.Bool("indicator-alloc", false, "use indicator-variable field allocation instead of canonical")
		fixed       = flag.Bool("fixed-stages", false, "synthesize at exactly max-stages (skip depth minimization)")
		explain     = flag.Bool("explain", false, "on an infeasible verdict, run UNSAT-core forensics and report the binding resource and blamed statements")
		seed        = flag.Int64("seed", 1, "random seed for CEGIS test inputs")
		symmetry    = flag.Bool("symmetry", false, "add symmetry-breaking clauses to the synthesis encoding (pisa only)")
		parallel    = flag.Int("parallel", 1, "portfolio parallelism: race stage depths and seeds on this many workers (1 = sequential)")
		seedFanout  = flag.Int("seed-fanout", 1, "diversified CEGIS seeds raced per stage depth in portfolio mode")
		raceAllocs  = flag.Bool("race-allocs", false, "also race the opposite field-allocation mode in portfolio mode")
		asJSON      = flag.Bool("json", false, "emit the configuration as JSON")
		emitLang    = flag.String("emit", "", "translate the configuration to low-level code: \"go\" or \"p4\" (pisa), \"bpfc\" (bpf)")
		verbose     = flag.Bool("v", false, "trace CEGIS phases")
		traceOut    = flag.String("trace-out", "", "write a JSONL span trace of the synthesis run to this file")
		stats       = flag.Bool("stats", false, "print solver metrics and a span summary tree to stderr")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof and expvar metrics on this address (e.g. localhost:6060)")
		remote      = flag.String("remote", "", "compile via a chipmunkd daemon at this base URL (e.g. http://localhost:8926) instead of locally")
		watch       = flag.Bool("watch", false, "with -remote: stream the job's live progress events (SSE) to stderr while it compiles")
		cachePath   = flag.String("cache-path", "", "persist a local solution cache to this JSON file so repeat invocations skip synthesis")
	)
	// Parse with ContinueOnError so a bad flag exits 1 like every other
	// usage error, instead of the flag package's default exit 2 — which
	// would collide with the TIMEOUT exit code below.
	flag.CommandLine.Init("chipmunk", flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		os.Exit(1) // the flag package already reported the error
	}

	if *watch && *remote == "" {
		return fmt.Errorf("-watch requires -remote (live events stream from a chipmunkd daemon)")
	}
	if *remote != "" {
		// The daemon API has no field for these, so a remote compile would
		// silently run with the defaults instead.
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-bpf-opcode-mask", *opcodeMask != 0},
			{"-fixed-stages", *fixed},
			{"-indicator-alloc", *indicator},
			{"-race-allocs", *raceAllocs},
		} {
			if f.set {
				return fmt.Errorf("%s is local-only (the daemon API does not expose it)", f.name)
			}
		}
	}

	kind, err := alu.KindByName(*aluKind)
	if err != nil {
		return err
	}
	opts := core.Options{
		Target:         *target,
		Width:          *width,
		MaxStages:      *maxStages,
		BPFOpcodeMask:  uint32(*opcodeMask),
		StatelessALU:   alu.Stateless{ConstBits: *constBits},
		StatefulALU:    alu.Stateful{Kind: kind, ConstBits: *constBits},
		SynthWidth:     word.Width(*synthWidth),
		VerifyWidth:    word.Width(*verifyWidth),
		IndicatorAlloc: *indicator,
		FixedStages:    *fixed,
		Explain:        *explain,
		Seed:           *seed,
		SymmetryBreak:  *symmetry,
		Parallelism:    *parallel,
		SeedFanout:     *seedFanout,
		RaceAllocs:     *raceAllocs,
	}
	// Out-of-range sizes and widths are usage errors (exit 1), caught
	// before any compile, local or remote, can start.
	if err := opts.Validate(); err != nil {
		return err
	}

	src, name, err := readSource(flag.Arg(0))
	if err != nil {
		return err
	}
	prog, err := parser.Parse(name, src)
	if err != nil {
		return err
	}

	if *remote != "" {
		return runRemote(*remote, server.CompileRequest{
			Name:          prog.Name,
			Source:        src,
			Target:        *target,
			Width:         *width,
			MaxStages:     *maxStages,
			ALU:           *aluKind,
			ConstBits:     *constBits,
			SynthWidth:    *synthWidth,
			VerifyWidth:   *verifyWidth,
			Seed:          *seed,
			Parallel:      *parallel,
			SeedFanout:    *seedFanout,
			Explain:       *explain,
			SymmetryBreak: *symmetry,
		}, *timeout, *asJSON, *watch)
	}

	var cache *solcache.Cache
	if *cachePath != "" {
		cache = solcache.New(0, solcache.WithPersistPath(*cachePath))
		opts.Cache = cache
	}
	if *verbose {
		opts.Trace = func(e cegis.Event) {
			fmt.Fprintf(os.Stderr, "  iter %2d %-6s %-7s %d conflicts %v\n",
				e.Iter, e.Phase, e.Outcome, e.Conflicts(), e.Elapsed.Round(time.Millisecond))
		}
		opts.Progress = func(phase string, st sat.Stats) {
			fmt.Fprintf(os.Stderr, "  ... %s solving: %d conflicts, %d decisions\n",
				phase, st.Conflicts, st.Decisions)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var tracer *obs.Tracer
	if *traceOut != "" || *stats {
		tracer = obs.NewTracer()
		ctx = obs.ContextWithTracer(ctx, tracer)
	}
	var reg *obs.Registry
	if *stats || *pprofAddr != "" {
		reg = obs.NewRegistry()
		ctx = obs.ContextWithMetrics(ctx, reg)
	}
	if *pprofAddr != "" {
		expvar.Publish("chipmunk", expvar.Func(func() any { return reg.Snapshot() }))
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "chipmunk: pprof server:", err)
			}
		}()
	}

	rep, err := core.Compile(ctx, prog, opts)

	if cache != nil && err == nil {
		if serr := cache.Save(); serr != nil {
			fmt.Fprintln(os.Stderr, "chipmunk: saving cache:", serr)
		}
	}
	if tracer != nil && *traceOut != "" {
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			return ferr
		}
		tracer.StreamTo(f)
		if cerr := f.Close(); cerr != nil {
			return cerr
		}
	}
	if *stats {
		fmt.Fprintln(os.Stderr, "--- metrics ---")
		fmt.Fprint(os.Stderr, reg.String())
		fmt.Fprintln(os.Stderr, "--- spans ---")
		fmt.Fprint(os.Stderr, tracer.Summary())
	}
	if err != nil {
		return err
	}

	switch {
	case rep.TimedOut:
		fmt.Printf("TIMEOUT after %v (depths probed: %s)\n", rep.Elapsed.Round(time.Millisecond), depthSummary(rep))
		os.Exit(2)
	case !rep.Feasible && rep.Target == "bpf":
		fmt.Printf("INFEASIBLE on the bpf register machine up to %d slots (%v)\n", *maxStages, rep.Elapsed.Round(time.Millisecond))
		renderExplanation(rep.Explanation, *asJSON)
		os.Exit(3)
	case !rep.Feasible:
		fmt.Printf("INFEASIBLE on a %d-wide grid up to %d stages (%v)\n", *width, *maxStages, rep.Elapsed.Round(time.Millisecond))
		renderExplanation(rep.Explanation, *asJSON)
		os.Exit(3)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep.Artifact)
	}
	switch *emitLang {
	case "":
	case "go":
		if rep.Config == nil {
			return fmt.Errorf("-emit go requires -target pisa")
		}
		src, err := emit.Go(rep.Config, 100, 1)
		if err != nil {
			return err
		}
		fmt.Print(src)
		return nil
	case "p4":
		if rep.Config == nil {
			return fmt.Errorf("-emit p4 requires -target pisa")
		}
		src, err := emit.P4(rep.Config)
		if err != nil {
			return err
		}
		fmt.Print(src)
		return nil
	case "bpfc":
		bc, ok := rep.Artifact.(*bpf.Config)
		if !ok {
			return fmt.Errorf("-emit bpfc requires -target bpf")
		}
		src, err := emit.BPFC(bc)
		if err != nil {
			return err
		}
		fmt.Print(src)
		return nil
	default:
		return fmt.Errorf("unknown -emit language %q (want go, p4, or bpfc)", *emitLang)
	}
	how := depthSummary(rep)
	if rep.Cached {
		how = "solution cache hit"
	}
	fmt.Printf("compiled %q in %v (%s)\n", prog.Name, rep.Elapsed.Round(time.Millisecond), how)
	if bc, ok := rep.Artifact.(*bpf.Config); ok {
		fmt.Printf("resources: %d slot(s), %d live instruction(s), %d register(s)\n\n",
			bc.Spec.Slots, bc.LiveInstrs(), bc.Spec.RegsFor(len(bc.Fields)))
	} else {
		fmt.Printf("resources: %d stage(s), max %d ALU(s)/stage, %d total\n\n",
			rep.Usage.Stages, rep.Usage.MaxALUsPerStage, rep.Usage.TotalALUs)
	}
	fmt.Print(rep.Artifact.String())
	return nil
}

// runRemote ships the compilation to a chipmunkd daemon and renders the
// returned job status in the local CLI's formats. With watch, the job is
// submitted asynchronously and its live SSE event stream is rendered to
// stderr until the terminal status arrives.
func runRemote(base string, req server.CompileRequest, timeout time.Duration, asJSON, watch bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	client := server.NewClient(base)
	var st *server.JobStatus
	var err error
	if watch {
		st, err = client.Submit(ctx, req)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "watching remote job %s (%s)\n", st.ID, st.State)
		spanNames := map[int64]string{}
		st, err = client.Watch(ctx, st.ID, func(ev server.JobEvent) {
			renderWatchEvent(spanNames, ev)
		})
	} else {
		st, err = client.Compile(ctx, req)
	}
	if err != nil {
		return err
	}
	if st.State != "done" {
		return fmt.Errorf("remote job %s ended in state %q: %s", st.ID, st.State, st.Error)
	}
	res := st.Result
	switch {
	case res.TimedOut:
		fmt.Printf("TIMEOUT after %.0fms (remote job %s)\n", res.ElapsedMS, st.ID)
		os.Exit(2)
	case !res.Feasible:
		fmt.Printf("INFEASIBLE on a %d-wide grid up to %d stages (remote job %s)\n", req.Width, req.MaxStages, st.ID)
		renderExplanation(res.Explanation, asJSON)
		os.Exit(3)
	}
	if asJSON {
		os.Stdout.Write(res.Config)
		fmt.Println()
		return nil
	}
	how := "remote job " + st.ID
	if res.Cached {
		how += ", solution cache hit"
	}
	fmt.Printf("compiled %q in %.1fms (%s)\n", req.Name, res.ElapsedMS, how)
	fmt.Printf("resources: %d stage(s), max %d ALU(s)/stage, %d total\n",
		res.Stages, res.MaxALUsPerStage, res.TotalALUs)
	return nil
}

// renderWatchEvent prints one SSE progress event. Span end records carry
// no name (only the span id), so starts register the id → name mapping
// that ends consume. SAT-solve spans are elided as too chatty for a
// terminal; their effort still arrives via sat.progress notes.
func renderWatchEvent(spanNames map[int64]string, ev server.JobEvent) {
	if ev.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "  (%d events dropped by backpressure)\n", ev.Dropped)
	}
	switch ev.Type {
	case "state":
		fmt.Fprintf(os.Stderr, "  state: %s\n", ev.Name)
	case "span_start":
		spanNames[ev.Span] = ev.Name
		if ev.Name == "sat.solve" {
			return
		}
		fmt.Fprintf(os.Stderr, "  > %s%s\n", ev.Name, attrSummary(ev.Attrs))
	case "span_end":
		name := spanNames[ev.Span]
		delete(spanNames, ev.Span)
		if name == "" || name == "sat.solve" {
			return
		}
		fmt.Fprintf(os.Stderr, "  < %s%s\n", name, attrSummary(ev.Attrs))
	case "note":
		fmt.Fprintf(os.Stderr, "  … %s%s\n", ev.Name, attrSummary(ev.Attrs))
	case "done":
		fmt.Fprintf(os.Stderr, "  state: %s\n", ev.Status.State)
	}
}

// attrSummary renders event attributes deterministically for the watch
// stream (JSON numbers arrive as float64; print integral values plainly).
func attrSummary(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		v := attrs[k]
		if f, ok := v.(float64); ok && f == float64(int64(f)) {
			v = int64(f)
		}
		fmt.Fprintf(&sb, " %s=%v", k, v)
	}
	return sb.String()
}

// renderExplanation prints the infeasibility-forensics report, if one was
// produced, before the INFEASIBLE exit. With -json the structured
// Explanation is emitted instead of the human-readable rendering.
func renderExplanation(exp *core.Explanation, asJSON bool) {
	if exp == nil {
		return
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(exp)
		return
	}
	fmt.Print(exp.Render())
}

func depthSummary(rep *core.Report) string {
	s := ""
	for i, d := range rep.Depths {
		if i > 0 {
			s += ", "
		}
		verdict := "infeasible"
		switch {
		case d.Feasible:
			verdict = "feasible"
		case d.Pruned:
			verdict = "pruned by depth floor"
		case d.Canceled:
			verdict = "canceled"
		case d.TimedOut:
			verdict = "timeout"
		}
		unit := "stage(s)"
		if rep.Target == "bpf" {
			unit = "slot(s)"
		}
		label := fmt.Sprintf("%d %s", d.Stages, unit)
		if d.Member != "" {
			label = d.Member
		}
		s += fmt.Sprintf("%s: %s after %d iters", label, verdict, d.Iters)
	}
	if rep.Winner != "" {
		s += ", winner " + rep.Winner
	}
	return s
}

func readSource(path string) (src, name string, err error) {
	if path == "" {
		data, err := io.ReadAll(os.Stdin)
		return string(data), "stdin", err
	}
	data, err := os.ReadFile(path)
	return string(data), path, err
}
