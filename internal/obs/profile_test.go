package obs

import (
	"encoding/json"
	"math"
	"testing"
)

// syntheticCompile builds a record stream for a two-iteration sequential
// compile with known durations (milliseconds in the comments):
//
//	compile                [0, 100]  feasible, pruned=1
//	  solcache.lookup      [0, 2]    miss
//	  attempt              [2, 90]
//	    cegis.iter         [2, 50]
//	      synth            [2, 30]
//	        sat.solve      [5, 25]   c=10 d=20 p=30 r=1 vars=500
//	      verify           [30, 50]
//	        sat.solve      [32, 44]  c=5 d=6 p=7 vars=900
//	    cegis.iter         [50, 90]
//	      synth            [50, 70]
//	        sat.solve      [51, 60]  c=2 d=3 p=4 vars=400
func syntheticCompile() []Record {
	ms := func(v int64) int64 { return v * 1e6 }
	start := func(id, parent int64, name string, t int64, attrs map[string]any) Record {
		return Record{Type: RecordStart, ID: id, Parent: parent, Name: name, TimeNS: ms(t), Attrs: attrs}
	}
	end := func(id, t int64, attrs map[string]any) Record {
		return Record{Type: RecordEnd, ID: id, TimeNS: ms(t), Attrs: attrs}
	}
	return []Record{
		start(1, 0, "compile", 0, map[string]any{"program": "synthetic"}),
		start(2, 1, "solcache.lookup", 0, nil),
		end(2, 2, map[string]any{"outcome": "miss"}),
		start(3, 1, "attempt", 2, nil),
		start(4, 3, "cegis.iter", 2, nil),
		start(5, 4, "synth", 2, nil),
		start(6, 5, "sat.solve", 5, nil),
		end(6, 25, map[string]any{"conflicts": int64(10), "decisions": int64(20), "propagations": int64(30), "restarts": int64(1), "cnf_vars": int64(500)}),
		end(5, 30, nil),
		start(7, 4, "verify", 30, nil),
		start(8, 7, "sat.solve", 32, nil),
		end(8, 44, map[string]any{"conflicts": int64(5), "decisions": int64(6), "propagations": int64(7), "cnf_vars": int64(900)}),
		end(7, 50, nil),
		end(4, 50, nil),
		start(9, 3, "cegis.iter", 50, nil),
		start(10, 9, "synth", 50, nil),
		start(11, 10, "sat.solve", 51, nil),
		end(11, 60, map[string]any{"conflicts": int64(2), "decisions": int64(3), "propagations": int64(4), "cnf_vars": int64(400)}),
		end(10, 70, nil),
		end(9, 90, nil),
		end(3, 90, map[string]any{"outcome": "feasible"}),
		end(1, 100, map[string]any{"feasible": true, "pruned": int64(1)}),
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRollupCompileSynthetic(t *testing.T) {
	p, err := RollupCompile(syntheticCompile())
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != ProfileVersion {
		t.Errorf("Version = %d, want %d", p.Version, ProfileVersion)
	}
	if p.Program != "synthetic" || !p.Feasible || p.TimedOut || p.Cached {
		t.Errorf("identity fields: %+v", p)
	}
	wall := []struct {
		name string
		got  float64
		want float64
	}{
		{"TotalMS", p.TotalMS, 100},
		{"SynthMS", p.SynthMS, 48},   // 28 + 20
		{"VerifyMS", p.VerifyMS, 20}, // 30..50
		{"SolveMS", p.SolveMS, 41},   // 20 + 12 + 9
		{"SolveSynthMS", p.SolveSynthMS, 29},
		{"SolveVerifyMS", p.SolveVerifyMS, 12},
		{"EncodeMS", p.EncodeMS, 27}, // 48+20-41
		{"CacheLookupMS", p.CacheLookupMS, 2},
		{"OtherMS", p.OtherMS, 30}, // 100-48-20-2
	}
	for _, w := range wall {
		if !near(w.got, w.want) {
			t.Errorf("%s = %v, want %v", w.name, w.got, w.want)
		}
	}
	if p.Attempts != 1 || p.Iters != 2 || p.Solves != 3 {
		t.Errorf("counts: attempts=%d iters=%d solves=%d, want 1/2/3", p.Attempts, p.Iters, p.Solves)
	}
	if p.Conflicts != 17 || p.Decisions != 29 || p.Propagations != 41 || p.Restarts != 1 {
		t.Errorf("solver effort: c=%d d=%d p=%d r=%d, want 17/29/41/1", p.Conflicts, p.Decisions, p.Propagations, p.Restarts)
	}
	if p.PeakCNFVars != 900 {
		t.Errorf("PeakCNFVars = %d, want 900", p.PeakCNFVars)
	}
	if p.PrunedDepths != 1 {
		t.Errorf("PrunedDepths = %d, want 1", p.PrunedDepths)
	}
	if p.PortfolioMembers != 0 || p.Winner != "" || p.WastedMS != 0 {
		t.Errorf("sequential compile reports portfolio fields: %+v", p)
	}
}

// TestRollupCompileEncodeSpans: cegis.encode spans (an attempt's sketch
// and seed-test setup, and each counterexample test) count as encode time
// and leave OtherMS, so the named layers sum to the compile's wall clock:
//
//	compile                [0, 100]
//	  attempt              [0, 100]
//	    cegis.encode       [0, 10]   setup
//	    cegis.iter         [10, 40]
//	      synth            [10, 25]
//	        sat.solve      [12, 20]
//	      verify           [25, 40]
//	        sat.solve      [30, 35]
//	    cegis.encode       [40, 45]  counterexample test
//	    cegis.iter         [45, 80]
//	      synth            [45, 80]
//	        sat.solve      [50, 70]
func TestRollupCompileEncodeSpans(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	span := func(id, parent int64, name string, from, to int64) []Record {
		return []Record{
			{Type: RecordStart, ID: id, Parent: parent, Name: name, TimeNS: ms(from)},
			{Type: RecordEnd, ID: id, TimeNS: ms(to)},
		}
	}
	var recs []Record
	for _, sp := range [][]Record{
		span(1, 0, "compile", 0, 100),
		span(2, 1, "attempt", 0, 100),
		span(3, 2, "cegis.encode", 0, 10),
		span(4, 2, "cegis.iter", 10, 40),
		span(5, 4, "synth", 10, 25),
		span(6, 5, "sat.solve", 12, 20),
		span(7, 4, "verify", 25, 40),
		span(8, 7, "sat.solve", 30, 35),
		span(9, 2, "cegis.encode", 40, 45),
		span(10, 2, "cegis.iter", 45, 80),
		span(11, 10, "synth", 45, 80),
		span(12, 11, "sat.solve", 50, 70),
	} {
		recs = append(recs, sp...)
	}
	p, err := RollupCompile(recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name      string
		got, want float64
	}{
		{"SynthMS", p.SynthMS, 50},
		{"VerifyMS", p.VerifyMS, 15},
		{"SolveMS", p.SolveMS, 33},
		{"EncodeMS", p.EncodeMS, 47}, // 50+15-33 in phases, 10+5 in encode spans
		{"OtherMS", p.OtherMS, 20},   // 100-50-15-15
	} {
		if !near(w.got, w.want) {
			t.Errorf("%s = %v, want %v", w.name, w.got, w.want)
		}
	}
	if sum := p.SolveMS + p.EncodeMS + p.CacheLookupMS + p.OtherMS; !near(sum, p.TotalMS) {
		t.Errorf("named layers sum to %v, compile took %v", sum, p.TotalMS)
	}
}

// The profile must be identical when the trace has been through a JSONL
// round trip, which widens integer attributes to float64.
func TestRollupCompileJSONRoundTrip(t *testing.T) {
	direct, err := RollupCompile(syntheticCompile())
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for _, rec := range syntheticCompile() {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var rt Record
		if err := json.Unmarshal(b, &rt); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rt)
	}
	rt, err := RollupCompile(recs)
	if err != nil {
		t.Fatal(err)
	}
	if direct != rt {
		t.Errorf("round-tripped profile differs:\n%+v\nvs\n%+v", rt, direct)
	}
}

func TestRollupCompilePortfolio(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	recs := []Record{
		{Type: RecordStart, ID: 1, Name: "compile", TimeNS: 0},
		{Type: RecordStart, ID: 2, Parent: 1, Name: "portfolio", TimeNS: 0},
		{Type: RecordStart, ID: 3, Parent: 2, Name: "attempt", TimeNS: 0,
			Attrs: map[string]any{"member": "d2s1"}},
		{Type: RecordEnd, ID: 3, TimeNS: ms(40)},
		{Type: RecordStart, ID: 4, Parent: 2, Name: "attempt", TimeNS: 0,
			Attrs: map[string]any{"member": "d3s1"}},
		{Type: RecordEnd, ID: 4, TimeNS: ms(25)},
		{Type: RecordEnd, ID: 2, TimeNS: ms(45),
			Attrs: map[string]any{"winner": "d2s1", "wasted_conflicts": int64(7)}},
		{Type: RecordEnd, ID: 1, TimeNS: ms(50)},
	}
	p, err := RollupCompile(recs)
	if err != nil {
		t.Fatal(err)
	}
	if p.PortfolioMembers != 2 || p.Attempts != 2 {
		t.Errorf("members=%d attempts=%d, want 2/2", p.PortfolioMembers, p.Attempts)
	}
	if p.Winner != "d2s1" || p.WastedConflicts != 7 {
		t.Errorf("winner=%q wasted=%d, want d2s1/7", p.Winner, p.WastedConflicts)
	}
	if !near(p.WastedMS, 25) { // the losing d3s1 attempt's duration
		t.Errorf("WastedMS = %v, want 25", p.WastedMS)
	}
}

// The rollup must pick the LAST complete compile span — a warm recompile
// on the same tracer, say — and ignore spans outside its subtree.
func TestRollupCompilePicksLastCompile(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	recs := []Record{
		{Type: RecordStart, ID: 1, Name: "compile", TimeNS: 0},
		{Type: RecordEnd, ID: 1, TimeNS: ms(10), Attrs: map[string]any{"feasible": true}},
		{Type: RecordStart, ID: 2, Name: "compile", TimeNS: ms(10)},
		{Type: RecordEnd, ID: 2, TimeNS: ms(12), Attrs: map[string]any{"cached": true}},
	}
	p, err := RollupCompile(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Cached || p.Feasible || !near(p.TotalMS, 2) {
		t.Errorf("want the 2ms cached compile, got %+v", p)
	}
}

func TestRollupCompileNoCompileSpan(t *testing.T) {
	if _, err := RollupCompile(nil); err == nil {
		t.Error("empty record set: want error")
	}
	recs := []Record{{Type: RecordStart, ID: 1, Name: "compile", TimeNS: 0}} // never ends
	if _, err := RollupCompile(recs); err == nil {
		t.Error("incomplete compile span: want error")
	}
	var nilTracer *Tracer
	if _, err := nilTracer.Profile(); err == nil {
		t.Error("nil tracer: want error")
	}
}

// Samples must carry every gate-relevant metric and encode booleans as
// 0/1.
func TestProfileSamples(t *testing.T) {
	p := CompileProfile{Feasible: true, Conflicts: 42, TotalMS: 1.5}
	s := p.Samples()
	if s["feasible"] != 1 || s["timed_out"] != 0 {
		t.Errorf("boolean samples: %v", s)
	}
	if s["conflicts"] != 42 || s["total_ms"] != 1.5 {
		t.Errorf("numeric samples: %v", s)
	}
	for _, name := range []string{"iters", "decisions", "propagations", "peak_cnf_vars", "solve_ms", "encode_ms", "cache_lookup_ms"} {
		if _, ok := s[name]; !ok {
			t.Errorf("samples missing %q", name)
		}
	}
}
