package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"spaceproc"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile with fewer samples above it is one or two outliers, not a
// property of the system.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses, with an error, a percentile that has fewer than minTail samples
// strictly beyond its rank, so p90 needs at least 100 samples.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, n-rank, minTail)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median is the middle of xs (mean of the middle two for even lengths);
// it is for repeated timings, where no tail rule applies.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sample is one operation as the load generator saw it. due is when it
// was scheduled (equal to start in a closed loop), queued when the
// generator released it, start when a client began it and end when the
// result came back.
type sample struct {
	op                      int
	client                  int
	due, queued, start, end time.Time
	err                     error
}

// latency runs from the due time, so in an open loop the wait a server
// stall imposes on requests scheduled during it counts against them.
func (s sample) latency() time.Duration { return s.end.Sub(s.due) }

// late is how far behind schedule the generator released the request.
func (s sample) late() time.Duration { return s.queued.Sub(s.due) }

// opFunc runs operation n on client. It may call st.begin once its
// input is ready, so input synthesis stays outside the latency, and must
// call st.done when the result arrives, so checking the result stays
// outside it too.
type opFunc func(client, n int, st *stamp) error

// stamp is the part of a sample an operation sets itself. due is the
// sample's due time in an open loop, and zero in a closed one.
type stamp struct{ due, start, end time.Time }

func (s *stamp) begin() { s.start = time.Now() }
func (s *stamp) done()  { s.end = time.Now() }

// runOp runs op and fills the sample's start and end.
func runOp(op opFunc, s *sample) {
	st := stamp{due: s.due, start: time.Now()}
	s.err = op(s.client, s.op, &st)
	if st.end.IsZero() {
		st.done()
	}
	s.start, s.end = st.start, st.end
}

// closedLoop runs clients goroutines that each issue op back to back
// until d has passed since the start; an op that is running at the
// deadline completes and counts. Operations are numbered from first. It
// returns every sample and the wall time from the start to the last
// completion.
func closedLoop(clients int, d time.Duration, first int, op opFunc) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var samples []sample
	next := first
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				s := sample{op: next, client: c}
				next++
				mu.Unlock()
				runOp(op, &s)
				s.due, s.queued = s.start, s.start
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return samples, lastEnd(samples, start).Sub(start)
}

// poissonSchedule returns the due offsets of a Poisson arrival process at
// rate per second over d, conditioned on its expected count: that many
// arrival times drawn uniformly over d and sorted, which is how a Poisson
// process places a given number of arrivals. Fixing the count keeps the
// offered work equal across seeds; the seed only moves the arrivals, and
// the same seed gives the same schedule.
func poissonSchedule(seed uint64, rate float64, d time.Duration) []time.Duration {
	src := spaceproc.NewRNGStream(seed, 0x5c4ed)
	out := make([]time.Duration, int(math.Round(rate*d.Seconds())))
	for i := range out {
		out[i] = time.Duration(src.Float64() * float64(d))
	}
	slices.Sort(out)
	return out
}

// openLoop issues operation i at start+sched[i] whatever the state of
// earlier ones, over conns clients. A due request waits for a free client
// and that wait is part of its latency, because latency runs from the due
// time; the generator itself never blocks, so it only runs late when its
// timer wakes late. Operations are numbered from first. It returns every
// sample and the wall time from the start to the last completion.
func openLoop(sched []time.Duration, conns, first int, op opFunc) ([]sample, time.Duration) {
	start := time.Now()
	samples := make([]sample, len(sched))
	// Sized to the schedule so the generator never waits on the clients.
	ready := make(chan int, len(sched))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range ready {
				samples[i].client = c
				runOp(op, &samples[i])
			}
		}(c)
	}
	for i, off := range sched {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		samples[i] = sample{op: first + i, due: due, queued: time.Now()}
		ready <- i
	}
	close(ready)
	wg.Wait()
	return samples, lastEnd(samples, start).Sub(start)
}

func lastEnd(samples []sample, start time.Time) time.Time {
	last := start
	for _, s := range samples {
		if s.end.After(last) {
			last = s.end
		}
	}
	return last
}

// durationsMS converts the chosen duration of every sample to
// milliseconds.
func durationsMS(samples []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(f(s)) / float64(time.Millisecond)
	}
	return out
}
