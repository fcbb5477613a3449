package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// Set-up timing. The test host alternates between a fast and a slow speed,
// about 1.5x apart, every second or so, so set-ups timed back to back land
// in one or two of those phases: the median of 4 s of back-to-back
// corpus_light set-ups moved by 0.28 of itself between runs. The samples
// are therefore spread over the run. Every workload builds its set-up
// before the window; compile workloads build it again between compiles,
// keeping set-up time at setupShare of the window's, and daemon_zipf and
// replay_zipf, whose set-ups cannot run inside their window, build it
// again after the window. setup_s is the median of all samples.
const (
	minSetups   = 3           // set-ups before the window, and again after it
	setupBudget = time.Second // cheap set-ups repeat before the window until they take this long
	setupShare  = 0.15        // compile workloads: set-up time as a share of window time
)

// setupTimer builds a workload's set-up and times every build.
type setupTimer[T any] struct {
	build   func() (T, error)
	discard func(T) // releases a build the run does not use
	times   []float64
}

// once builds one set-up and times it.
func (s *setupTimer[T]) once() (T, time.Duration, error) {
	t0 := time.Now()
	v, err := s.build()
	d := time.Since(t0)
	if err == nil {
		s.times = append(s.times, d.Seconds())
	}
	return v, d, err
}

// before builds minSetups times and until the builds have taken
// setupBudget, and returns the last build; the others are discarded. The
// heap is collected between builds and after the last, untimed, so neither
// the next build nor the measurement inherits a discarded build's garbage:
// peak RSS then reflects one set-up plus the workload.
func (s *setupTimer[T]) before() (T, error) {
	var last T
	defer runtime.GC()
	var spent time.Duration
	for i := 0; i < minSetups || spent < setupBudget; i++ {
		if i > 0 {
			s.discard(last)
			var zero T
			last = zero
			runtime.GC()
		}
		v, d, err := s.once()
		if err != nil {
			return last, err
		}
		spent += d
		last = v
	}
	return last, nil
}

// after builds minSetups more times once the window has closed,
// discarding each build.
func (s *setupTimer[T]) after() error {
	for i := 0; i < minSetups; i++ {
		runtime.GC()
		v, _, err := s.once()
		if err != nil {
			return err
		}
		s.discard(v)
	}
	return nil
}

// seconds is setup_s: the median build time.
func (s *setupTimer[T]) seconds() float64 {
	fmt.Fprintf(os.Stderr, "chipbench: %d set-ups, median %.4f s, min %.4f s, max %.4f s\n",
		len(s.times), median(s.times), percentile(s.times, 0), percentile(s.times, 1))
	return median(s.times)
}
