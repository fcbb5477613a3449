// Package portfolio expands one compilation request into a portfolio of
// candidate synthesis attempts and races them on a bounded worker pool.
//
// The paper's §4 evaluation shows CEGIS run time is the bottleneck and is
// heavy-tailed across random seeds and grid sizes. Instead of the strictly
// sequential iterative-deepening loop (probe 1 stage, on proof of
// infeasibility probe 2, ...), the scheduler here launches attempts at
// every candidate stage depth concurrently, optionally fans each depth out
// across K diversified CEGIS seeds, and optionally races both allocation
// modes (canonical vs indicator). First-SAT-wins semantics still return
// the minimum-depth solution:
//
//   - a SAT at depth d cancels all attempts at depth > d (and same-depth
//     siblings) but keeps shallower attempts running until they finish or
//     report UNSAT — the winner is only declared once every shallower
//     depth is proven infeasible;
//   - a depth-d UNSAT cancels all attempts at depth <= d: synthesis-phase
//     infeasibility on a finite test set is a definitive proof for that
//     grid, and feasibility is monotone in stage count, so shallower
//     attempts can only rediscover the same verdict.
//
// Scheduling policy. The seed-0, base-allocation member of the minimum
// unresolved depth (the "frontier") is always eligible — alone, the
// portfolio therefore replays the sequential deepening schedule exactly,
// with zero slowdown on single-core machines. On top of that baseline:
//
//   - seed hedges (slot k > 0) at the frontier depth join k*Stagger after
//     the depth became the frontier. Compiles that finish inside the
//     stagger never pay redundancy cost; heavy-tailed solves recruit
//     rivals that routinely win several times faster, even time-sliced on
//     one core, because the first SAT cancels the rest mid-solve (via the
//     sat.SetStop hook);
//   - deeper-than-frontier members run only while the pool has idle CPU
//     capacity (fewer running members than GOMAXPROCS), so multicore
//     machines race every depth at once while single-core machines never
//     steal cycles from the frontier.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Verdict classifies one portfolio member's outcome.
type Verdict int

const (
	// Unknown means the member never produced a verdict (it was skipped
	// before running).
	Unknown Verdict = iota
	// Feasible: the member synthesized a configuration at its depth.
	Feasible
	// Infeasible: the member proved its depth unsatisfiable.
	Infeasible
	// TimedOut: the compile deadline expired while the member ran.
	TimedOut
	// Canceled: a sibling's result made the member moot (superseded by a
	// SAT at its depth or shallower, or implied infeasible by a deeper
	// UNSAT) and the scheduler cancelled it.
	Canceled
)

func (v Verdict) String() string {
	switch v {
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case TimedOut:
		return "timeout"
	case Canceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// Member is one attempt in the portfolio: a (stage depth, CEGIS seed,
// allocation mode) tuple.
type Member struct {
	// Index is the member's position in Spec.Members() order: depth
	// ascending, base allocation mode first, seed fanout last. Index 0 is
	// exactly the attempt the sequential path would run first.
	Index int
	// Label identifies the member in spans, traces, and reports, e.g.
	// "d2.s1.canon" (depth 2, seed slot 1, canonical allocation).
	Label string
	// Stages is the pipeline depth this member probes.
	Stages int
	// Seed is the member's diversified CEGIS seed.
	Seed int64
	// IndicatorAlloc selects the indicator-variable field allocation.
	IndicatorAlloc bool
	// Hedge is how long after the member's depth becomes the frontier
	// (minimum unresolved depth) the member becomes eligible to run — the
	// seed-fanout stagger. Zero-hedge members run as soon as their depth
	// reaches the frontier; while their depth is deeper than the frontier,
	// members only run on spare CPU capacity regardless of Hedge.
	Hedge time.Duration
}

// seedStride separates diversified CEGIS seeds far enough that the
// per-seed random test sets share no obvious structure.
const seedStride = 1_000_003

// DefaultStagger is the per-seed-slot hedge delay used when Spec.Stagger
// is zero. A depth that resolves faster than this never pays any
// redundancy cost for seed fanout; heavy-tailed solves recruit a rival
// every DefaultStagger until the fanout is exhausted.
const DefaultStagger = 500 * time.Millisecond

// Spec describes the portfolio expansion of one compilation.
type Spec struct {
	// MinStages..MaxStages is the inclusive depth range to race. MinStages
	// below 1 is treated as 1.
	MinStages, MaxStages int
	// SeedFanout is how many diversified CEGIS seeds race per depth
	// (values below 1 mean 1: just BaseSeed).
	SeedFanout int
	// BaseSeed is seed slot 0; slot k uses BaseSeed + k*seedStride.
	BaseSeed int64
	// IndicatorAlloc is the base allocation mode (matches the sequential
	// path's choice).
	IndicatorAlloc bool
	// RaceAllocs additionally races the opposite allocation mode for
	// every depth/seed member.
	RaceAllocs bool
	// Stagger is the per-seed-slot hedge delay; 0 means DefaultStagger,
	// negative disables staggering entirely.
	Stagger time.Duration
}

func (s Spec) stagger() time.Duration {
	if s.Stagger == 0 {
		return DefaultStagger
	}
	if s.Stagger < 0 {
		return 0
	}
	return s.Stagger
}

// Members expands the spec into the ordered attempt list. Ordering is
// depth-ascending, base allocation before the raced one, seed slot 0
// before diversified slots — so Members()[0] is exactly the attempt the
// sequential iterative-deepening path would run first.
func (s Spec) Members() []Member {
	lo := s.MinStages
	if lo < 1 {
		lo = 1
	}
	fanout := s.SeedFanout
	if fanout < 1 {
		fanout = 1
	}
	allocs := []bool{s.IndicatorAlloc}
	if s.RaceAllocs {
		allocs = append(allocs, !s.IndicatorAlloc)
	}
	var ms []Member
	for d := lo; d <= s.MaxStages; d++ {
		for k := 0; k < fanout; k++ {
			for _, ind := range allocs {
				name := "canon"
				if ind {
					name = "ind"
				}
				ms = append(ms, Member{
					Index:          len(ms),
					Label:          fmt.Sprintf("d%d.s%d.%s", d, k, name),
					Stages:         d,
					Seed:           s.BaseSeed + int64(k)*seedStride,
					IndicatorAlloc: ind,
					Hedge:          time.Duration(k) * s.stagger(),
				})
			}
		}
	}
	return ms
}

// RunFunc executes one member's synthesis attempt. It must honour ctx
// cancellation (returning TimedOut when the context expires — the
// scheduler reclassifies cancellations it caused itself as Canceled) and
// must return Feasible only for a validated configuration.
type RunFunc[T any] func(ctx context.Context, m Member) (T, Verdict, error)

// Outcome is one member's final disposition.
type Outcome[T any] struct {
	Member  Member
	Verdict Verdict
	Value   T
	// Ran reports whether the member actually executed; false means the
	// scheduler resolved its depth before a worker picked it up.
	Ran bool
}

// Result is the portfolio's aggregate outcome.
type Result[T any] struct {
	// Winner is the minimum-depth feasible outcome, non-nil only when
	// every depth below it (within the raced range) is proven infeasible.
	Winner *Outcome[T]
	// Outcomes holds every member's disposition, indexed by Member.Index.
	Outcomes []Outcome[T]
	// TimedOut reports that the compile deadline expired before the
	// minimum feasible depth could be established.
	TimedOut bool
	// Infeasible reports that every raced depth was proven infeasible.
	Infeasible bool
}

// Cancellation causes, distinguished from genuine deadline expiry via
// context.Cause so the scheduler can tell "you lost" from "time ran out".
var (
	errSuperseded = errors.New("portfolio: superseded by a sibling's result")
	errImplied    = errors.New("portfolio: depth infeasible by a deeper UNSAT")
)

// numCores reports the CPU budget for deeper-than-frontier speculation;
// a variable so scheduler tests can simulate multicore machines.
var numCores = func() int { return runtime.GOMAXPROCS(0) }

type sched[T any] struct {
	ctx     context.Context
	members []Member
	run     RunFunc[T]
	reg     *obs.Registry
	depths  []int     // sorted unique raced depths
	cores   int       // spare-capacity gate for deeper-than-frontier members
	start   time.Time // when Run began, for the member-wait histogram

	mu            sync.Mutex
	wake          chan struct{} // closed and replaced on every state change
	claimed       []bool
	finished      []bool
	outcomes      []Outcome[T]
	cancels       []context.CancelCauseFunc
	reasons       []error // why the scheduler cancelled member i, if it did
	infeasible    map[int]bool
	feasibleAt    map[int]int // depth -> member index of first completed SAT
	minFeasible   int
	running       int       // claimed and not yet finished
	frontier      int       // minimum unresolved depth, -1 once all resolve
	frontierStart time.Time // when frontier last advanced (hedge epoch)
	winner        int       // member index, -1 until declared
	timedOut      bool
	done          bool
	fatal         error
	panicked      any // first member panic, re-raised by Run (recover never yields nil)
}

// Run races the members on a pool of `workers` goroutines (clamped to the
// member count) and returns once every member has finished, been
// cancelled, or been skipped — no goroutines outlive the call. A non-nil
// error reports a member's internal failure (not infeasibility or
// timeout) and aborts the whole portfolio.
func Run[T any](ctx context.Context, members []Member, workers int, run RunFunc[T]) (Result[T], error) {
	if len(members) == 0 {
		return Result[T]{}, errors.New("portfolio: no members")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(members) {
		workers = len(members)
	}

	s := &sched[T]{
		ctx:           ctx,
		members:       members,
		run:           run,
		reg:           obs.MetricsFrom(ctx),
		cores:         numCores(),
		wake:          make(chan struct{}),
		claimed:       make([]bool, len(members)),
		finished:      make([]bool, len(members)),
		outcomes:      make([]Outcome[T], len(members)),
		cancels:       make([]context.CancelCauseFunc, len(members)),
		reasons:       make([]error, len(members)),
		infeasible:    map[int]bool{},
		feasibleAt:    map[int]int{},
		minFeasible:   int(^uint(0) >> 1),
		winner:        -1,
		start:         time.Now(),
		frontierStart: time.Now(),
	}
	seen := map[int]bool{}
	for _, m := range members {
		if !seen[m.Stages] {
			seen[m.Stages] = true
			s.depths = append(s.depths, m.Stages)
		}
	}
	sort.Ints(s.depths)
	s.frontier = s.depths[0]

	s.reg.Counter("portfolio.members").Add(int64(len(members)))

	// The caller participates as a worker instead of blocking: the first
	// claim (almost always the frontier member) then runs on the caller's
	// warm, already-grown stack. Fresh goroutines start at minimum stack
	// size and a solver-sized attempt pays the growth copying every
	// compile — a measurable constant cost on millisecond compiles.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker()
		}()
	}
	s.worker()
	wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.panicked != nil {
		panic(s.panicked)
	}
	if s.fatal != nil {
		return Result[T]{}, s.fatal
	}
	res := Result[T]{Outcomes: s.outcomes}
	if s.winner >= 0 {
		res.Winner = &s.outcomes[s.winner]
		return res, nil
	}
	if s.timedOut || s.ctx.Err() != nil {
		res.TimedOut = true
		return res, nil
	}
	res.Infeasible = true
	for _, d := range s.depths {
		if !s.infeasible[d] {
			// Should be unreachable: without a winner, a timeout, or a
			// fatal error every depth resolves infeasible. Report a
			// timeout rather than a wrong "infeasible".
			res.Infeasible = false
			res.TimedOut = true
			break
		}
	}
	return res, nil
}

func (s *sched[T]) worker() {
	for {
		i, wait := s.next()
		if i >= 0 {
			s.runMember(i)
			continue
		}
		if wait == 0 {
			return
		}
		// Members remain but none is eligible yet: sleep until the earliest
		// frontier hedge matures (wait > 0), or — when only pool-gated
		// deeper members remain (wait < 0) — until a sibling result frees
		// capacity or moves the frontier, or the compile deadline expires.
		s.mu.Lock()
		wake := s.wake
		s.mu.Unlock()
		var timer <-chan time.Time
		var t *time.Timer
		if wait > 0 {
			t = time.NewTimer(wait)
			timer = t.C
		}
		select {
		case <-timer:
		case <-wake:
		case <-s.ctx.Done():
		}
		if t != nil {
			t.Stop()
		}
	}
}

// next claims the next runnable member. It returns (index, 0) to run,
// (-1, wait>0) when the earliest frontier hedge matures in `wait`,
// (-1, -1) when only pool-gated members remain (park until a state
// change), and (-1, 0) when no members remain at all. Members whose depth
// is already resolved are consumed as skipped outcomes along the way.
func (s *sched[T]) next() (int, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sinceFrontier := time.Since(s.frontierStart)
	ctxDone := s.ctx.Err() != nil
	minWait := time.Duration(-1)
	blocked := false
	for i, m := range s.members {
		if s.claimed[i] {
			continue
		}
		if s.done || ctxDone || s.depthResolved(m.Stages) {
			s.claimed[i] = true
			s.finished[i] = true
			s.outcomes[i] = Outcome[T]{Member: m, Verdict: Canceled}
			s.reg.Counter("portfolio.skipped").Add(1)
			continue
		}
		if m.Stages == s.frontier {
			// Frontier members are hedge-staggered relative to when their
			// depth became the minimum unresolved one; the zero-hedge
			// member is always eligible, reproducing the sequential
			// schedule.
			if m.Hedge > sinceFrontier {
				if w := m.Hedge - sinceFrontier; minWait < 0 || w < minWait {
					minWait = w
				}
				continue
			}
		} else if s.running >= s.cores {
			// Deeper than the frontier: pure speculation, only worth CPU
			// the frontier isn't using.
			blocked = true
			continue
		}
		s.claimed[i] = true
		s.running++
		// How long the member sat waiting for a slot after Run began —
		// large waits mean hedges matured or the pool was saturated, i.e.
		// the portfolio is CPU-bound rather than frontier-bound.
		s.reg.Histogram("portfolio.member_wait_ms").Observe(time.Since(s.start).Milliseconds())
		return i, 0
	}
	if minWait > 0 {
		return -1, minWait
	}
	if blocked {
		return -1, -1
	}
	return -1, 0
}

// depthResolved reports whether depth d needs no further attempts: proven
// (or implied) infeasible, already satisfied, or superseded by a SAT at a
// shallower depth. Callers hold s.mu.
func (s *sched[T]) depthResolved(d int) bool {
	if s.infeasible[d] {
		return true
	}
	return d >= s.minFeasible
}

func (s *sched[T]) runMember(i int) {
	m := s.members[i]
	mctx, cancel := context.WithCancelCause(s.ctx)
	s.mu.Lock()
	s.cancels[i] = cancel
	s.mu.Unlock()
	defer cancel(nil)

	s.reg.Gauge("portfolio.inflight").Add(1)
	v, verdict, err := s.runGuarded(mctx, m)
	s.reg.Gauge("portfolio.inflight").Add(-1)

	s.report(i, v, verdict, err)
}

// runGuarded is s.run with a member panic caught. The member fails with
// an error, which winds the race down like any internal failure, and Run
// re-raises the panic on its caller's goroutine once every worker has
// stopped. Left alone, a panic on a worker goroutine would end the
// process before the caller (chipmunkd's per-job recover, say) saw it.
func (s *sched[T]) runGuarded(ctx context.Context, m Member) (v T, verdict Verdict, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.mu.Lock()
			if s.panicked == nil {
				s.panicked = p
			}
			s.mu.Unlock()
			err = fmt.Errorf("portfolio: member %s panicked: %v", m.Label, p)
		}
	}()
	return s.run(ctx, m)
}

func (s *sched[T]) report(i int, v T, verdict Verdict, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.members[i]
	s.finished[i] = true
	s.cancels[i] = nil
	s.running--

	// A member the scheduler itself cancelled observes its context as
	// expired and reports TimedOut (or an error from the aborted run);
	// reclassify using the recorded cause.
	if s.reasons[i] != nil && (verdict == TimedOut || err != nil) {
		verdict, err = Canceled, nil
	}
	if err != nil {
		if s.fatal == nil {
			s.fatal = err
		}
		s.done = true
		s.cancelRunning(func(Member) bool { return true }, errSuperseded)
		s.broadcast()
		return
	}
	s.outcomes[i] = Outcome[T]{Member: m, Verdict: verdict, Value: v, Ran: true}
	switch verdict {
	case Feasible:
		if _, ok := s.feasibleAt[m.Stages]; !ok {
			s.feasibleAt[m.Stages] = i
		}
		if m.Stages < s.minFeasible {
			s.minFeasible = m.Stages
		}
		// First-SAT-wins: deeper attempts and same-depth siblings are
		// moot; strictly shallower attempts keep running.
		s.cancelRunning(func(o Member) bool { return o.Stages >= m.Stages }, errSuperseded)
	case Infeasible:
		// A depth-d UNSAT implies every depth <= d is infeasible
		// (feasibility is monotone in stage count), so cancel shallower
		// and same-depth attempts.
		for _, d := range s.depths {
			if d <= m.Stages {
				s.infeasible[d] = true
			}
		}
		s.cancelRunning(func(o Member) bool { return o.Stages <= m.Stages }, errImplied)
	case TimedOut:
		s.timedOut = true
		s.done = true
	case Canceled:
		s.reg.Counter("portfolio.canceled").Add(1)
	}
	s.advanceFrontier()
	s.checkWinner()
	s.broadcast()
}

// advanceFrontier moves the frontier to the new minimum unresolved depth
// after a verdict resolves one, restarting the hedge epoch so the next
// depth's seed fanout staggers relative to when racing it became
// worthwhile. Callers hold s.mu.
func (s *sched[T]) advanceFrontier() {
	for _, d := range s.depths {
		if !s.depthResolved(d) {
			if d != s.frontier {
				s.frontier = d
				s.frontierStart = time.Now()
			}
			return
		}
	}
	s.frontier = -1
}

// checkWinner declares the winner once the minimum feasible depth has
// every shallower raced depth proven infeasible. Callers hold s.mu.
func (s *sched[T]) checkWinner() {
	if s.winner >= 0 {
		return
	}
	i, ok := s.feasibleAt[s.minFeasible]
	if !ok {
		return
	}
	for _, d := range s.depths {
		if d >= s.minFeasible {
			break
		}
		if !s.infeasible[d] {
			return
		}
	}
	s.winner = i
	s.done = true
	s.cancelRunning(func(Member) bool { return true }, errSuperseded)
}

// cancelRunning cancels every claimed-but-unfinished member matching the
// predicate, recording the cause. Callers hold s.mu.
func (s *sched[T]) cancelRunning(match func(Member) bool, cause error) {
	for j := range s.members {
		if s.claimed[j] && !s.finished[j] && s.cancels[j] != nil && match(s.members[j]) {
			if s.reasons[j] == nil {
				s.reasons[j] = cause
			}
			s.cancels[j](cause)
		}
	}
}

// broadcast wakes workers parked on the stagger timer. Callers hold s.mu.
func (s *sched[T]) broadcast() {
	close(s.wake)
	s.wake = make(chan struct{})
}
