package portfolio

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeRun builds a RunFunc whose members resolve according to a script:
// verdicts[label] gives the member's verdict, gates[label] (when present)
// blocks the member until the channel closes. Members without a script
// entry block until their context is cancelled (reporting TimedOut, as
// the real attempt does).
type fakeRun struct {
	mu      sync.Mutex
	started map[string]time.Time
}

func (f *fakeRun) fn(verdicts map[string]Verdict, gates map[string]chan struct{}) RunFunc[string] {
	return func(ctx context.Context, m Member) (string, Verdict, error) {
		f.mu.Lock()
		if f.started == nil {
			f.started = map[string]time.Time{}
		}
		f.started[m.Label] = time.Now()
		f.mu.Unlock()
		if g, ok := gates[m.Label]; ok {
			select {
			case <-g:
			case <-ctx.Done():
				return "", TimedOut, nil
			}
		}
		v, ok := verdicts[m.Label]
		if !ok {
			<-ctx.Done()
			return "", TimedOut, nil
		}
		return m.Label, v, nil
	}
}

func spec(minS, maxS, fanout int) Spec {
	return Spec{MinStages: minS, MaxStages: maxS, SeedFanout: fanout, BaseSeed: 7, Stagger: -1}
}

// manyCores lifts the deeper-than-frontier speculation gate so tests can
// exercise true multicore racing on any machine.
func manyCores(t *testing.T) {
	t.Helper()
	old := numCores
	numCores = func() int { return 64 }
	t.Cleanup(func() { numCores = old })
}

func TestMembersOrderingAndLabels(t *testing.T) {
	s := Spec{MinStages: 2, MaxStages: 3, SeedFanout: 2, BaseSeed: 5, RaceAllocs: true, Stagger: 10 * time.Millisecond}
	ms := s.Members()
	want := []string{"d2.s0.canon", "d2.s0.ind", "d2.s1.canon", "d2.s1.ind", "d3.s0.canon", "d3.s0.ind", "d3.s1.canon", "d3.s1.ind"}
	if len(ms) != len(want) {
		t.Fatalf("got %d members, want %d", len(ms), len(want))
	}
	for i, m := range ms {
		if m.Label != want[i] {
			t.Errorf("member %d label %q, want %q", i, m.Label, want[i])
		}
		if m.Index != i {
			t.Errorf("member %d has Index %d", i, m.Index)
		}
		wantSeed := int64(5)
		if strings.Contains(m.Label, ".s1.") {
			wantSeed += seedStride
		}
		if m.Seed != wantSeed {
			t.Errorf("member %s seed %d, want %d", m.Label, m.Seed, wantSeed)
		}
		wantHedge := time.Duration(0)
		if strings.Contains(m.Label, ".s1.") {
			wantHedge = 10 * time.Millisecond
		}
		if m.Hedge != wantHedge {
			t.Errorf("member %s hedge %v, want %v", m.Label, m.Hedge, wantHedge)
		}
	}
	// Members()[0] must be the sequential path's first attempt: shallowest
	// depth, base allocation, seed slot 0.
	if m := ms[0]; m.Stages != 2 || m.IndicatorAlloc || m.Seed != 5 {
		t.Errorf("Members()[0] = %+v is not the sequential first attempt", m)
	}
}

func TestMinStagesBelowOneClamped(t *testing.T) {
	ms := Spec{MinStages: 0, MaxStages: 2, SeedFanout: 1}.Members()
	if ms[0].Stages != 1 {
		t.Fatalf("first depth %d, want 1", ms[0].Stages)
	}
}

// The winner must sit at the minimum feasible depth even when a deeper
// member finishes SAT first: the deep SAT must wait for the shallow
// verdicts.
func TestWinnerIsMinimumDepth(t *testing.T) {
	manyCores(t)
	f := &fakeRun{}
	d1gate := make(chan struct{})
	verdicts := map[string]Verdict{"d1.s0.canon": Feasible, "d2.s0.canon": Feasible, "d3.s0.canon": Feasible}
	gates := map[string]chan struct{}{"d1.s0.canon": d1gate}
	// Release depth 1 only after the deeper SATs had ample time to land.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(d1gate)
	}()
	res, err := Run(context.Background(), spec(1, 3, 1).Members(), 3, f.fn(verdicts, gates))
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner == nil || res.Winner.Member.Stages != 1 {
		t.Fatalf("winner %+v, want depth 1", res.Winner)
	}
}

// A shallow UNSAT promotes the next depth's SAT to winner.
func TestUnsatPromotesDeeperSAT(t *testing.T) {
	f := &fakeRun{}
	verdicts := map[string]Verdict{"d1.s0.canon": Infeasible, "d2.s0.canon": Feasible}
	res, err := Run(context.Background(), spec(1, 3, 1).Members(), 3, f.fn(verdicts, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner == nil || res.Winner.Member.Stages != 2 {
		t.Fatalf("winner %+v, want depth 2", res.Winner)
	}
	// Depth 3 must not have been necessary: either skipped or cancelled.
	o := res.Outcomes[2]
	if o.Verdict == Feasible || o.Verdict == Infeasible {
		t.Fatalf("depth 3 outcome %v, want canceled/skipped", o.Verdict)
	}
}

// A deep UNSAT implies all shallower depths are infeasible and cancels
// their running attempts.
func TestDeepUnsatImpliesShallowInfeasible(t *testing.T) {
	manyCores(t)
	f := &fakeRun{}
	// Depth 1 and 2 hang; depth 3 proves UNSAT quickly. The portfolio as a
	// whole is then infeasible without waiting for the shallow attempts.
	verdicts := map[string]Verdict{"d3.s0.canon": Infeasible}
	res, err := Run(context.Background(), spec(1, 3, 1).Members(), 3, f.fn(verdicts, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Infeasible || res.Winner != nil || res.TimedOut {
		t.Fatalf("got %+v, want Infeasible", res)
	}
	for _, o := range res.Outcomes[:2] {
		if o.Ran && o.Verdict != Canceled {
			t.Errorf("%s verdict %v, want Canceled", o.Member.Label, o.Verdict)
		}
	}
}

// With a single worker the schedule degrades to exactly sequential
// iterative deepening: depths probed in order, hedges skipped.
func TestSingleWorkerIsSequential(t *testing.T) {
	f := &fakeRun{}
	verdicts := map[string]Verdict{
		"d1.s0.canon": Infeasible, "d1.s1.canon": Infeasible,
		"d2.s0.canon": Feasible, "d2.s1.canon": Feasible,
	}
	res, err := Run(context.Background(), spec(1, 2, 2).Members(), 1, f.fn(verdicts, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner == nil || res.Winner.Member.Label != "d2.s0.canon" {
		t.Fatalf("winner %+v, want d2.s0.canon", res.Winner)
	}
	ran := 0
	for _, o := range res.Outcomes {
		if o.Ran {
			ran++
		}
	}
	if ran != 2 {
		t.Errorf("%d members ran, want 2 (d1.s0 then d2.s0)", ran)
	}
}

// Frontier hedges must not start before their stagger matures, and must
// start once it does while the incumbent is still solving.
func TestHedgeStaggerRelativeToFrontier(t *testing.T) {
	f := &fakeRun{}
	s := spec(1, 1, 2)
	s.Stagger = 30 * time.Millisecond
	gate := make(chan struct{})
	verdicts := map[string]Verdict{"d1.s0.canon": Feasible, "d1.s1.canon": Feasible}
	gates := map[string]chan struct{}{"d1.s0.canon": gate, "d1.s1.canon": gate}
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(gate)
	}()
	start := time.Now()
	res, err := Run(context.Background(), s.Members(), 2, f.fn(verdicts, gates))
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner == nil {
		t.Fatal("no winner")
	}
	f.mu.Lock()
	hedgeStart, ok := f.started["d1.s1.canon"]
	f.mu.Unlock()
	if !ok {
		t.Fatal("hedge never started")
	}
	if d := hedgeStart.Sub(start); d < 30*time.Millisecond {
		t.Errorf("hedge started %v after frontier, want >= 30ms", d)
	}
}

// An attempt error aborts the whole portfolio.
func TestFatalError(t *testing.T) {
	boom := errors.New("boom")
	run := func(ctx context.Context, m Member) (string, Verdict, error) {
		if m.Label == "d1.s0.canon" {
			return "", Unknown, boom
		}
		<-ctx.Done()
		return "", TimedOut, nil
	}
	_, err := Run(context.Background(), spec(1, 2, 1).Members(), 2, run)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// A member panicking on a worker goroutine must not end the process: the
// race winds down and Run re-raises the panic on its caller's goroutine,
// where the caller's own recover sees it.
func TestMemberPanicReraisedOnCaller(t *testing.T) {
	manyCores(t)
	reg := obs.NewRegistry()
	ctx := obs.ContextWithMetrics(context.Background(), reg)
	for _, label := range []string{"d1.s0.canon", "d2.s0.canon"} {
		run := func(ctx context.Context, m Member) (string, Verdict, error) {
			if m.Label == label {
				panic("boom in " + m.Label)
			}
			<-ctx.Done()
			return "", TimedOut, nil
		}
		got := func() (p any) {
			defer func() { p = recover() }()
			Run(ctx, spec(1, 2, 1).Members(), 2, run)
			return nil
		}()
		if got != "boom in "+label {
			t.Fatalf("%s: recovered %v, want the member's panic", label, got)
		}
		if g := reg.Gauge("portfolio.inflight").Value(); g != 0 {
			t.Errorf("%s: inflight gauge %d after Run, want 0", label, g)
		}
	}
}

// Context expiry surfaces as TimedOut, not Infeasible.
func TestDeadlineTimesOut(t *testing.T) {
	f := &fakeRun{}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, spec(1, 2, 1).Members(), 2, f.fn(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut || res.Infeasible || res.Winner != nil {
		t.Fatalf("got %+v, want TimedOut", res)
	}
}

// No goroutines outlive Run: the inflight gauge returns to zero and every
// member has a final disposition.
func TestNoLeaks(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.ContextWithMetrics(context.Background(), reg)
	f := &fakeRun{}
	verdicts := map[string]Verdict{
		"d1.s0.canon": Infeasible, "d1.s1.canon": Infeasible,
		"d2.s0.canon": Feasible, "d2.s1.canon": Feasible,
		"d3.s0.canon": Feasible, "d3.s1.canon": Feasible,
	}
	res, err := Run(ctx, spec(1, 3, 2).Members(), 4, f.fn(verdicts, nil))
	if err != nil {
		t.Fatal(err)
	}
	if g := reg.Gauge("portfolio.inflight").Value(); g != 0 {
		t.Errorf("inflight gauge %d after Run, want 0", g)
	}
	for _, o := range res.Outcomes {
		if o.Verdict == Unknown {
			t.Errorf("%s has no final disposition", o.Member.Label)
		}
	}
	if got := reg.Counter("portfolio.members").Value(); got != 6 {
		t.Errorf("members counter %d, want 6", got)
	}
}

// Racing both allocation modes: an indicator-mode SAT wins when the
// canonical sibling is slower, at the same depth.
func TestRaceAllocs(t *testing.T) {
	f := &fakeRun{}
	s := spec(1, 1, 1)
	s.RaceAllocs = true
	gate := make(chan struct{})
	defer close(gate)
	verdicts := map[string]Verdict{"d1.s0.ind": Feasible}
	gates := map[string]chan struct{}{"d1.s0.canon": gate}
	res, err := Run(context.Background(), s.Members(), 2, f.fn(verdicts, gates))
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner == nil || !res.Winner.Member.IndicatorAlloc {
		t.Fatalf("winner %+v, want indicator member", res.Winner)
	}
}

// Stress the scheduler under the race detector: many random portfolios.
func TestSchedulerStress(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		f := &fakeRun{}
		feasibleDepth := 1 + trial%3
		verdicts := map[string]Verdict{}
		for d := 1; d <= 3; d++ {
			for k := 0; k < 2; k++ {
				label := fmt.Sprintf("d%d.s%d.canon", d, k)
				if d < feasibleDepth {
					verdicts[label] = Infeasible
				} else {
					verdicts[label] = Feasible
				}
			}
		}
		res, err := Run(context.Background(), spec(1, 3, 2).Members(), 1+trial%4, f.fn(verdicts, nil))
		if err != nil {
			t.Fatal(err)
		}
		if res.Winner == nil || res.Winner.Member.Stages != feasibleDepth {
			t.Fatalf("trial %d: winner %+v, want depth %d", trial, res.Winner, feasibleDepth)
		}
	}
}
