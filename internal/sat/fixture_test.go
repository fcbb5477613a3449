package sat

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cnfFixture is a real synthesis CNF under testdata/cnf/, written by
// testdata/cnf/gen (see its doc for the exact commands), with the counters
// the solver's search produces on it.
type cnfFixture struct {
	file   string
	status Status
	want   Stats // Conflicts, Decisions, Propagations, Restarts, Learnt
}

// cnfFixtures pins the solver's trajectory on real synthesis formulas.
// The counters are those of the slice-per-clause solver the clause arena
// replaced: storage changes must leave every decision, propagation,
// conflict, restart and learnt clause as it was. A change that moves them
// is a heuristic change and must say so.
var cnfFixtures = []cnfFixture{
	// marple_reorder's depth-1 infeasibility proof: the synthesis CNF of
	// the last CEGIS iteration of Table-2 mutant 0 on a one-stage grid.
	{"reorder_d1_m0.cnf", Unsat, Stats{Conflicts: 80, Decisions: 811, Propagations: 16497, Learnt: 76}},
	// marple_reorder's depth-2 synthesis, where the corpus spends its SAT
	// time: the hardest synthesis solve of Table-2 mutant 6 (15,397
	// conflicts inside CEGIS's incremental solver).
	{"reorder_d2_m6_i5.cnf.gz", Sat, Stats{Conflicts: 2560, Decisions: 12175, Propagations: 1554173, Restarts: 14, Learnt: 2558}},
}

func loadFixture(tb testing.TB, name string) *Formula {
	tb.Helper()
	fh, err := os.Open(filepath.Join("testdata", "cnf", name))
	if err != nil {
		tb.Fatal(err)
	}
	defer fh.Close()
	var r io.Reader = fh
	if strings.HasSuffix(name, ".gz") {
		zr, err := gzip.NewReader(fh)
		if err != nil {
			tb.Fatal(err)
		}
		defer zr.Close()
		r = zr
	}
	f, err := ParseDIMACS(r)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return f
}

// TestFixtureTrajectoryPinned solves each fixture on a fresh solver and
// checks the verdict, the model, and the exact search counters.
func TestFixtureTrajectoryPinned(t *testing.T) {
	for _, fx := range cnfFixtures {
		t.Run(fx.file, func(t *testing.T) {
			f := loadFixture(t, fx.file)
			s, ok := f.Load()
			if !ok {
				t.Fatal("fixture is trivially UNSAT at load")
			}
			if st := s.Solve(); st != fx.status {
				t.Fatalf("verdict %v, want %v", st, fx.status)
			}
			if fx.status == Sat {
				model := make([]bool, f.NumVars)
				for v := range model {
					model[v] = s.Value(Var(v))
				}
				if !modelSatisfiesFormula(model, f) {
					t.Fatal("model violates the fixture")
				}
			}
			got := s.Stats()
			got = Stats{Conflicts: got.Conflicts, Decisions: got.Decisions,
				Propagations: got.Propagations, Restarts: got.Restarts, Learnt: got.Learnt}
			if got != fx.want {
				t.Errorf("search trajectory moved:\n got  %+v\n want %+v", got, fx.want)
			}
		})
	}
}

// BenchmarkSolveFixture loads and solves each fixture on a fresh solver;
// loading is outside the timer.
func BenchmarkSolveFixture(b *testing.B) {
	for _, fx := range cnfFixtures {
		f := loadFixture(b, fx.file)
		b.Run(strings.TrimSuffix(strings.TrimSuffix(fx.file, ".gz"), ".cnf"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, _ := f.Load()
				b.StartTimer()
				if st := s.Solve(); st != fx.status {
					b.Fatalf("verdict %v, want %v", st, fx.status)
				}
			}
		})
	}
}
