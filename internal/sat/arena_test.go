package sat

import (
	"fmt"
	"math/rand"
	"testing"
)

// stressArena makes s reduce its learnt clauses after every conflict and
// compact the arena after every reduction that deleted a clause, so small
// instances cross many reduceDB and compaction cycles.
func stressArena(s *Solver) *Solver {
	s.reduceBase = -1 << 40
	s.garbageFrac = 0
	return s
}

// arenaInvariant walks the arena and checks the bookkeeping compaction
// and activity lookups rely on: headers parse back to back to the end,
// the wasted count matches the deleted clauses, every learnt clause's
// trailing word is its index in learnts, and every watcher points at a
// live clause watching the literal whose list holds it.
func arenaInvariant(s *Solver) error {
	wasted, learnt := 0, 0
	for i := 0; i < len(s.arena); {
		hdr := s.arena[i]
		n := 1 + int(hdr>>hdrSizeShift)
		if hdr&hdrLearnt != 0 {
			n++
		}
		if i+n > len(s.arena) {
			return fmt.Errorf("clause at %d overruns the arena", i)
		}
		switch {
		case hdr&hdrDeleted != 0:
			wasted += n
		case hdr&hdrLearnt != 0:
			if slot := s.learntSlot(clauseRef(i)); slot >= len(s.learnts) || s.learnts[slot] != clauseRef(i) {
				return fmt.Errorf("learnt clause at %d has slot %d", i, slot)
			}
			learnt++
		}
		i += n
	}
	if wasted != s.wasted {
		return fmt.Errorf("wasted %d, deleted clauses hold %d", s.wasted, wasted)
	}
	if learnt != len(s.learnts) || learnt != len(s.learntAct) {
		return fmt.Errorf("%d live learnt clauses, learnts %d, learntAct %d", learnt, len(s.learnts), len(s.learntAct))
	}
	for l, ws := range s.watches {
		for _, w := range ws {
			if s.arena[w.ref]&hdrDeleted != 0 {
				return fmt.Errorf("watcher of %v points at deleted clause %d", Lit(l), w.ref)
			}
			if lits := s.lits(w.ref); lits[0].Not() != Lit(l) && lits[1].Not() != Lit(l) {
				return fmt.Errorf("watcher of %v points at clause %d not watching it", Lit(l), w.ref)
			}
		}
	}
	return nil
}

// loadStressed loads f into a fresh stressed solver.
func loadStressed(f *Formula) (*Solver, bool) {
	s := stressArena(New())
	return s, f.LoadInto(s)
}

// TestArenaCompactionAgreesWithReferences solves random instances across
// many reduce/compact cycles and checks every verdict against DPLLSolve
// (and EnumSolve where it is cheap), and every model against the clause
// list.
func TestArenaCompactionAgreesWithReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	compactions := 0
	for trial := 0; trial < 150; trial++ {
		n := 12 + rng.Intn(39) // 12..50 vars
		f := randomFormula(rng, n, int(float64(n)*4.26)+rng.Intn(4), 3)
		want, _ := DPLLSolve(f)
		if n <= 14 {
			if est, _, err := EnumSolve(f); err != nil || est != want {
				t.Fatalf("trial %d: reference oracles disagree: dpll %v, enum %v (%v)", trial, want, est, err)
			}
		}
		s, ok := loadStressed(f)
		got := Unsat
		if ok {
			got = s.Solve()
		}
		if got != want {
			t.Fatalf("trial %d: CDCL %v, references %v (n=%d, %d compactions)", trial, got, want, n, s.compactions)
		}
		if err := arenaInvariant(s); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got == Sat {
			model := make([]bool, n)
			for v := range model {
				model[v] = s.Value(Var(v))
			}
			if !modelSatisfiesFormula(model, f) {
				t.Fatalf("trial %d: model violates the formula after %d compactions", trial, s.compactions)
			}
		}
		compactions += s.compactions
	}
	if compactions < 300 {
		t.Fatalf("only %d compactions over the campaign; the stress settings no longer reach compact", compactions)
	}
}

// TestArenaCompactionInvisibleToSearch solves the same instances with the
// same reduction schedule, once compacting after every reduction and once
// never compacting: the clause offsets differ, the search must not.
func TestArenaCompactionInvisibleToSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	compactions := 0
	for trial := 0; trial < 40; trial++ {
		n := 40 + rng.Intn(40)
		f := randomFormula(rng, n, int(float64(n)*4.2), 3)
		compacting, _ := loadStressed(f)
		never, _ := loadStressed(f)
		never.garbageFrac = 2 // wasted words never exceed twice the arena
		a, b := compacting.Solve(), never.Solve()
		compactions += compacting.compactions
		if never.compactions != 0 {
			t.Fatalf("trial %d: solver compacted with garbageFrac 2", trial)
		}
		sa, sb := compacting.Stats(), never.Stats()
		sa.SolveNS, sb.SolveNS = 0, 0
		if a != b || sa != sb {
			t.Fatalf("trial %d: compaction moved the search (%d compactions):\n%v %+v\n%v %+v",
				trial, compacting.compactions, a, sa, b, sb)
		}
		for v := 0; v < n; v++ {
			if compacting.Value(Var(v)) != never.Value(Var(v)) {
				t.Fatalf("trial %d: models differ at var %d", trial, v)
			}
		}
	}
	if compactions < 300 {
		t.Fatalf("only %d compactions over the campaign; the stress settings no longer reach compact", compactions)
	}

	// A longer refutation: PHP(7,6) takes hundreds of conflicts.
	compacting, never := stressArena(New()), stressArena(New())
	never.garbageFrac = 2
	pigeonhole(compacting, 7, 6)
	pigeonhole(never, 7, 6)
	a, b := compacting.Solve(), never.Solve()
	sa, sb := compacting.Stats(), never.Stats()
	sa.SolveNS, sb.SolveNS = 0, 0
	if a != Unsat || b != Unsat || sa != sb {
		t.Fatalf("pigeonhole: compaction moved the search (%d compactions):\n%v %+v\n%v %+v",
			compacting.compactions, a, sa, b, sb)
	}
	if err := arenaInvariant(compacting); err != nil {
		t.Fatalf("pigeonhole: %v", err)
	}
	if compacting.compactions < 100 {
		t.Fatalf("pigeonhole: only %d compactions", compacting.compactions)
	}
}

// TestArenaCompactionIncremental keeps one stressed solver across rounds
// of clause additions and Solve(assumptions...) calls: every verdict must
// match a fresh solver and enumeration, and every Unsat core must be a
// subset of the assumptions that already refutes the formula.
func TestArenaCompactionIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	compactions, cores := 0, 0
	for trial := 0; trial < 30; trial++ {
		n := 12 + rng.Intn(5) // 12..16 vars, within brute's reach
		s := stressArena(New())
		mkVars(s, n)
		var cum [][]Lit
		for round := 0; round < 6; round++ {
			for i := 0; i < n/2+rng.Intn(n); i++ {
				cl := make([]Lit, 3)
				for j := range cl {
					cl[j] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
				}
				cum = append(cum, cl)
				s.AddClause(cl...)
			}
			var assume []Lit
			for len(assume) < 1+rng.Intn(4) {
				assume = append(assume, MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1))
			}
			checkRound(t, s, n, cum, assume)
			if err := arenaInvariant(s); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			if s.Solve(assume...) != Unsat {
				continue
			}
			core := s.UnsatCore()
			inAssume := map[Lit]bool{}
			for _, a := range assume {
				inAssume[a] = true
			}
			withCore := append([][]Lit{}, cum...)
			for _, l := range core {
				if !inAssume[l] {
					t.Fatalf("trial %d round %d: core literal %v is not an assumption %v", trial, round, l, assume)
				}
				withCore = append(withCore, []Lit{l})
			}
			if brute(n, withCore) {
				t.Fatalf("trial %d round %d: core %v does not refute the formula", trial, round, core)
			}
			cores++
		}
		compactions += s.compactions
	}
	if compactions == 0 || cores == 0 {
		t.Fatalf("campaign too weak: %d compactions, %d Unsat cores checked", compactions, cores)
	}
}

// TestFuzzIncrementalSeedCompacts pins that the committed compacting seed
// of FuzzIncrementalSolve still drives its solver through a compaction.
func TestFuzzIncrementalSeedCompacts(t *testing.T) {
	if s := incrementalRounds(t, fuzzCompactingSeed); s.compactions == 0 {
		t.Fatal("the compacting fuzz seed no longer reaches compact")
	}
}
