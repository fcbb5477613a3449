package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/bpf"
	"repro/internal/interp"
	"repro/internal/pisa"
	"repro/internal/word"
)

// checkPackets is how many seeded random (packet, state) pairs every
// returned configuration is compared on against the interpreter.
const checkPackets = 64

// checker compares configurations with the reference interpreter. With
// corruptNext set it first corrupts the next PISA configuration it is
// handed — the self-test showing the check is not vacuous.
type checker struct {
	corruptNext bool
}

func newChecker(rc runConfig) *checker { return &checker{corruptNext: rc.corrupt} }

// maybeCorrupt returns cfg, or a behaviour-changing corruption of it when
// the self-test asked for one and none has been made yet.
func (c *checker) maybeCorrupt(cfg *pisa.Config) *pisa.Config {
	if !c.corruptNext {
		return cfg
	}
	if bad, ok := corruptPISA(cfg); ok {
		c.corruptNext = false
		return bad
	}
	return cfg
}

// check verifies that art computes what prog computes, on seeded random
// inputs at the configuration's run width.
func (c *checker) check(prog *ast.Program, art backend.Config, seed int64) error {
	if p, ok := art.(*pisa.Config); ok {
		art = c.maybeCorrupt(p)
	}
	return checkConfig(prog, art, seed, checkPackets)
}

// codeSize is Figure 5's resource axis for an artifact: ALUs used on pisa,
// live (non-nop) instructions on bpf.
func codeSize(art backend.Config) int {
	switch a := art.(type) {
	case *pisa.Config:
		return a.Usage().TotalALUs
	case *bpf.Config:
		return a.LiveInstrs()
	}
	return 0
}

// artifactSize is the size axis the deepening search minimizes: pipeline
// stages on pisa, instruction slots on bpf.
func artifactSize(art backend.Config) int {
	switch a := art.(type) {
	case *pisa.Config:
		return a.Grid.Stages
	case *bpf.Config:
		return a.Spec.Slots
	}
	return 0
}

// programVars lists the packet fields and state variables prog mentions.
func programVars(p *ast.Program) (fields, states []string) {
	fs, ss := map[string]bool{}, map[string]bool{}
	for name := range p.Init {
		ss[name] = true
	}
	note := func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Field:
			fs[e.Name] = true
		case *ast.State:
			ss[e.Name] = true
		}
	}
	forEachAssign(p.Stmts, func(a *ast.Assign) { note(a.LHS.Ref()) })
	ast.WalkExprs(p.Stmts, note)
	return sortedKeys(fs), sortedKeys(ss)
}

// forEachAssign calls fn on every assignment in stmts, nested ones
// included.
func forEachAssign(stmts []ast.Stmt, fn func(*ast.Assign)) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.Assign:
			fn(s)
		case *ast.If:
			forEachAssign(s.Then, fn)
			forEachAssign(s.Else, fn)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkConfig runs n seeded random (packet, state) pairs through art and
// through the interpreter on prog, and reports the first disagreement on
// any variable either side knows.
func checkConfig(prog *ast.Program, art backend.Config, seed int64, n int) error {
	w := art.RunWidth()
	in, err := interp.New(w)
	if err != nil {
		return fmt.Errorf("reference interpreter: %w", err)
	}
	fields, states := programVars(prog)
	cf, cs := art.Vars()
	fields = union(fields, cf)
	states = union(states, cs)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		snap := interp.NewSnapshot()
		for _, f := range fields {
			snap.Pkt[f] = randWord(rng, w)
		}
		for _, s := range states {
			snap.State[s] = randWord(rng, w)
		}
		want, err := in.Run(prog, snap)
		if err != nil {
			return fmt.Errorf("reference interpreter: %w", err)
		}
		gotPkt, gotState := art.Exec(snap.Pkt, snap.State)
		got := interp.Snapshot{Pkt: gotPkt, State: gotState}
		if !got.Equal(want, fields, states) {
			return fmt.Errorf("%s: input %v: config gives %v, interpreter gives %v", prog.Name, snap, got, want)
		}
	}
	return nil
}

func union(a, b []string) []string {
	m := map[string]bool{}
	for _, s := range a {
		m[s] = true
	}
	for _, s := range b {
		m[s] = true
	}
	return sortedKeys(m)
}

func randWord(rng *rand.Rand, w word.Width) uint64 {
	return w.Trunc(rng.Uint64())
}

// holeSite names one hole of a PISA configuration: a stateful or
// stateless ALU hole (by map key), or an output mux.
type holeSite struct {
	kind string // "stateful", "stateless" or "omux"
	i, j int
	key  string
}

func flipHole(c *pisa.Config, s holeSite) {
	switch s.kind {
	case "stateful":
		c.Values.Stateful[s.i][s.j][s.key] ^= 1
	case "stateless":
		c.Values.Stateless[s.i][s.j][s.key] ^= 1
	case "omux":
		c.Values.OMux[s.i][s.j] ^= 1
	}
}

// corruptPISA returns a copy of cfg with one hole bit flipped such that the
// copy still validates and behaves differently from cfg on at least a
// quarter of 256 random inputs; a flip visible on few inputs (a comparison
// constant off by one) would test the check's luck, not the check.
// Behaviour is compared through the configurations' own simulator, not
// the interpreter, so the corruption is chosen independently of the check
// it exercises.
func corruptPISA(cfg *pisa.Config) (*pisa.Config, bool) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, false
	}
	var sites []holeSite
	for i := range cfg.Values.Stateful {
		for j := range cfg.Values.Stateful[i] {
			for _, k := range sortedKeys(cfg.Values.Stateful[i][j]) {
				sites = append(sites, holeSite{"stateful", i, j, k})
			}
			sites = append(sites, holeSite{"omux", i, j, ""})
			for _, k := range sortedKeys(cfg.Values.Stateless[i][j]) {
				sites = append(sites, holeSite{"stateless", i, j, k})
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	type probe struct{ pkt, state map[string]uint64 }
	probes := make([]probe, 256)
	for i := range probes {
		probes[i] = probe{map[string]uint64{}, map[string]uint64{}}
		for _, f := range cfg.Fields {
			probes[i].pkt[f] = randWord(rng, cfg.Grid.WordWidth)
		}
		for _, s := range cfg.States {
			probes[i].state[s] = randWord(rng, cfg.Grid.WordWidth)
		}
	}
	for _, s := range sites {
		var c pisa.Config
		if json.Unmarshal(raw, &c) != nil {
			return nil, false
		}
		flipHole(&c, s)
		if c.Validate() != nil {
			continue
		}
		differ := 0
		for _, pr := range probes {
			p0, s0 := cfg.Exec(pr.pkt, pr.state)
			p1, s1 := c.Exec(pr.pkt, pr.state)
			a := interp.Snapshot{Pkt: p0, State: s0}
			if !a.Equal(interp.Snapshot{Pkt: p1, State: s1}, cfg.Fields, cfg.States) {
				differ++
			}
		}
		if differ >= len(probes)/4 {
			return &c, true
		}
	}
	return nil, false
}
