package circuit

import (
	"testing"

	"repro/internal/sat"
	"repro/internal/word"
)

func TestGroupsBlameConflictingAssertions(t *testing.T) {
	b := New()
	s := sat.New()
	c := NewCNF(b, s)
	c.EnableGroups()

	x := b.InputWord(4)
	c.SetGroup("wants-3")
	c.Assert(b.EqW(x, b.ConstWord(3, 4)))
	c.SetGroup("wants-5")
	c.Assert(b.EqW(x, b.ConstWord(5, 4)))
	c.SetGroup("harmless")
	c.Assert(b.Or(x[0], b.Not(x[0])))
	c.SetGroup("")

	names := c.Groups()
	if len(names) != 3 {
		t.Fatalf("Groups() = %v, want 3 names", names)
	}
	all := c.GroupAssumptions(names)
	if got := s.Solve(all...); got != sat.Unsat {
		t.Fatalf("Solve under all groups = %v, want Unsat", got)
	}
	core := s.UnsatCore()
	blamed := map[string]bool{}
	for _, l := range core {
		name, ok := c.GroupName(l)
		if !ok {
			t.Fatalf("core literal %v is not a group selector", l)
		}
		blamed[name] = true
	}
	if !blamed["wants-3"] || !blamed["wants-5"] {
		t.Fatalf("core should blame both conflicting groups, got %v", blamed)
	}
	if blamed["harmless"] {
		t.Fatalf("tautological group blamed: %v", blamed)
	}

	// Dropping either blamed group restores satisfiability.
	for _, keep := range [][]string{{"wants-3", "harmless"}, {"wants-5", "harmless"}} {
		if got := s.Solve(c.GroupAssumptions(keep)...); got != sat.Sat {
			t.Fatalf("Solve under %v = %v, want Sat", keep, got)
		}
	}
}

func TestGroupFalseAssertionBlamesOnlyItself(t *testing.T) {
	b := New()
	s := sat.New()
	c := NewCNF(b, s)
	c.EnableGroups()

	x := b.Input()
	c.SetGroup("fine")
	c.Assert(x)
	c.SetGroup("impossible")
	c.Assert(False) // e.g. a domain constraint over an empty range
	c.SetGroup("")

	all := c.GroupAssumptions(c.Groups())
	if got := s.Solve(all...); got != sat.Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
	for _, l := range s.UnsatCore() {
		if name, _ := c.GroupName(l); name != "impossible" {
			t.Fatalf("blamed %q, want only the impossible group", name)
		}
	}
	// Without the impossible group the formula is satisfiable.
	if got := s.Solve(c.GroupAssumptions([]string{"fine"})...); got != sat.Sat {
		t.Fatal("dropping the impossible group should restore SAT")
	}
}

func TestGroupsOffByDefaultIsUngated(t *testing.T) {
	// Without EnableGroups, SetGroup must be a no-op and the clause stream
	// identical to one that never mentions groups: same solver variable
	// and clause counts, and a plain (assumption-free) Solve sees the
	// contradiction.
	build := func(withSetGroup bool) (*sat.Solver, *CNF) {
		b := New()
		s := sat.New()
		c := NewCNF(b, s)
		x := b.InputWord(word.Width(3))
		if withSetGroup {
			c.SetGroup("ignored")
		}
		c.Assert(b.EqW(x, b.ConstWord(1, 3)))
		if withSetGroup {
			c.SetGroup("other")
		}
		c.Assert(b.EqW(x, b.ConstWord(2, 3)))
		return s, c
	}
	sPlain, cPlain := build(false)
	sGrouped, cGrouped := build(true)
	if sPlain.NumVars() != sGrouped.NumVars() || cPlain.NumClauses() != cGrouped.NumClauses() {
		t.Fatalf("SetGroup without EnableGroups changed the encoding: vars %d vs %d, clauses %d vs %d",
			sPlain.NumVars(), sGrouped.NumVars(), cPlain.NumClauses(), cGrouped.NumClauses())
	}
	if got := sGrouped.Solve(); got != sat.Unsat {
		t.Fatalf("ungated contradictory assertions should be Unsat, got %v", got)
	}
	if len(cGrouped.Groups()) != 0 {
		t.Fatal("groups allocated despite EnableGroups never being called")
	}
}
