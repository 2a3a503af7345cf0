// Package crreject implements the onboard NGST application the
// preprocessing layer feeds: cosmic-ray rejection over the multiple
// non-destructive readouts of a baseline, producing the single integrated
// image that is Rice-compressed and downlinked (Figure 1; Stockman/Fixsen
// et al.'s CR-rejection algorithms [10-12]).
//
// A cosmic-ray hit deposits charge that persists in all subsequent
// readouts, so it appears as a step in the temporal series of the struck
// coordinate. The rejector detects steps against a robust (MAD-based)
// estimate of the readout noise, removes them, and integrates the repaired
// series.
package crreject

import (
	"fmt"
	"math"
	"sync"

	"spaceproc/internal/dataset"
)

// Config parameterizes the rejector.
type Config struct {
	// Threshold is the step-detection level in robust sigma units.
	Threshold float64
	// SigmaFloor is the minimum noise estimate in counts, guarding
	// against zero MAD on constant series.
	SigmaFloor float64
}

// DefaultConfig returns the rejection parameters used by the pipeline.
func DefaultConfig() Config {
	return Config{Threshold: 5, SigmaFloor: 2}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Threshold <= 0 {
		return fmt.Errorf("crreject: threshold must be positive, got %v", c.Threshold)
	}
	if c.SigmaFloor < 0 {
		return fmt.Errorf("crreject: negative sigma floor %v", c.SigmaFloor)
	}
	return nil
}

// Stats summarizes one integration.
type Stats struct {
	// Hits is the number of pixels in which at least one cosmic-ray step
	// was detected and removed.
	Hits int
	// Steps is the total number of steps removed (a pixel can be struck
	// more than once per baseline).
	Steps int
}

// Rejector integrates baselines with cosmic-ray step removal.
type Rejector struct {
	cfg Config
}

// New validates cfg and returns a Rejector.
func New(cfg Config) (*Rejector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Rejector{cfg: cfg}, nil
}

// integrateScratch carries the per-series buffers of one integration pass,
// reused across every coordinate of the pass and, through scratchPool,
// across passes.
type integrateScratch struct {
	ser         dataset.Series
	vals, diffs []float64
	abs         []float64
}

// scratchPool recycles integration scratch so a pass allocates nothing
// beyond its output image once the pool is warm.
var scratchPool = sync.Pool{New: func() any { return new(integrateScratch) }}

func (sc *integrateScratch) grow(n int) {
	if cap(sc.vals) < n {
		sc.vals = make([]float64, n)
		sc.diffs = make([]float64, 0, n)
		sc.abs = make([]float64, n)
	}
}

// Integrate collapses a baseline stack into one image, removing cosmic-ray
// steps per coordinate, and returns the image with rejection statistics.
// All per-series working memory is pooled, so the pass allocates nothing
// beyond the output image.
func (r *Rejector) Integrate(s *dataset.Stack) (*dataset.Image, Stats) {
	w, h := s.Width(), s.Height()
	out := dataset.NewImage(w, h)
	var stats Stats
	sc := scratchPool.Get().(*integrateScratch)
	defer scratchPool.Put(sc)
	sc.grow(s.Len())
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sc.ser = s.SeriesAtBuf(x, y, sc.ser)
			v, steps := r.integrateSeries(sc.ser, sc)
			out.Set(x, y, v)
			if steps > 0 {
				stats.Hits++
				stats.Steps += steps
			}
		}
	}
	return out, stats
}

// integrateSeries removes detected steps from one temporal series and
// returns the integrated (mean) value plus the number of steps removed.
func (r *Rejector) integrateSeries(ser dataset.Series, sc *integrateScratch) (uint16, int) {
	n := len(ser)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return ser[0], 0
	}
	sc.grow(n)
	vals := sc.vals[:n]
	for i, v := range ser {
		vals[i] = float64(v)
	}
	diffs := sc.diffs[:0]
	for i := 1; i < n; i++ {
		diffs = append(diffs, vals[i]-vals[i-1])
	}
	_, sigma := madSigma(diffs, sc.abs[:0])
	if sigma < r.cfg.SigmaFloor {
		sigma = r.cfg.SigmaFloor
	}
	// Remove steps: subtract each detected jump from all later readouts,
	// carrying a running offset so consecutive steps are each detected
	// against the corrected predecessor.
	steps := 0
	var offset float64
	for i := 1; i < n; i++ {
		vals[i] -= offset
		d := vals[i] - vals[i-1]
		if math.Abs(d) > r.cfg.Threshold*sigma {
			offset += d
			vals[i] -= d
			steps++
		}
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(n)
	if mean < 0 {
		mean = 0
	}
	if mean > 0xFFFF {
		mean = 0xFFFF
	}
	return uint16(mean + 0.5), steps
}

// IntegrateRamp collapses an up-the-ramp baseline (non-destructive
// accumulating readouts; synth.Ramp mode) into one image of total
// accumulated charge, removing cosmic-ray steps per coordinate. A cosmic
// ray appears as one anomalously large inter-readout difference; the
// estimator drops differences deviating from the per-series median rate by
// more than the threshold and scales the surviving mean rate back to the
// full baseline.
func (r *Rejector) IntegrateRamp(s *dataset.Stack) (*dataset.Image, Stats) {
	w, h := s.Width(), s.Height()
	out := dataset.NewImage(w, h)
	var stats Stats
	sc := scratchPool.Get().(*integrateScratch)
	defer scratchPool.Put(sc)
	sc.grow(s.Len())
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sc.ser = s.SeriesAtBuf(x, y, sc.ser)
			v, steps := r.integrateRampSeries(sc.ser, sc)
			out.Set(x, y, v)
			if steps > 0 {
				stats.Hits++
				stats.Steps += steps
			}
		}
	}
	return out, stats
}

// integrateRampSeries estimates total accumulated charge for one ramp.
func (r *Rejector) integrateRampSeries(ser dataset.Series, sc *integrateScratch) (uint16, int) {
	n := len(ser)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return ser[0], 0
	}
	sc.grow(n)
	diffs := sc.diffs[:0]
	for i := 1; i < n; i++ {
		diffs = append(diffs, float64(ser[i])-float64(ser[i-1]))
	}
	med, sigma := madSigma(diffs, sc.abs[:0])
	if sigma < r.cfg.SigmaFloor {
		sigma = r.cfg.SigmaFloor
	}
	var sum float64
	var kept, steps int
	for _, d := range diffs {
		if math.Abs(d-med) > r.cfg.Threshold*sigma {
			steps++
			continue
		}
		sum += d
		kept++
	}
	if kept == 0 {
		// Every difference rejected: fall back to the raw last-minus-
		// first estimate.
		return clampCharge(float64(ser[n-1]) - float64(ser[0]) + float64(ser[0])), steps
	}
	rate := sum / float64(kept)
	// Total charge = first readout plus the rate across the remaining
	// n-1 intervals (the first readout already holds one interval).
	total := float64(ser[0]) + rate*float64(n-1)
	return clampCharge(total), steps
}

func clampCharge(v float64) uint16 {
	if v < 0 {
		return 0
	}
	if v > 0xFFFF {
		return 0xFFFF
	}
	return uint16(v + 0.5)
}

// madSigma returns the median of diffs and the robust standard-deviation
// estimate 1.4826 * MAD, which the steps themselves cannot inflate. buf is
// workspace (grown as needed); diffs is left untouched.
func madSigma(diffs, buf []float64) (med, sigma float64) {
	if len(diffs) == 0 {
		return 0, 0
	}
	abs := append(buf[:0], diffs...)
	med = medianInPlace(abs)
	for i, v := range diffs {
		abs[i] = math.Abs(v - med)
	}
	return med, 1.4826 * medianInPlace(abs)
}

// medianInPlace returns the median of v, reordering it: the middle order
// statistic for an odd length, the mean of the two middle ones for an even
// length. It selects rather than sorts, and returns exactly what a sort
// would for the values rejection feeds it: finite, and never negative
// zero, so equal values are equal bits.
func medianInPlace(v []float64) float64 {
	k := len(v) / 2
	upper := selectKth(v, k)
	if len(v)%2 == 1 {
		return upper
	}
	// selectKth leaves the k smallest values in v[:k]; the largest of
	// them is the lower middle order statistic.
	lower := v[0]
	for _, x := range v[1:k] {
		lower = max(lower, x)
	}
	return (lower + upper) / 2
}

// selectCutoff is the range length below which selectKth stops
// partitioning and finishes with an insertion sort.
const selectCutoff = 8

// selectKth reorders v so that v[k] holds the value a full sort would put
// there, with every value in v[:k] <= v[k] <= every value in v[k+1:], and
// returns v[k]. It is quickselect with a median-of-three pivot; expected
// cost is linear in len(v).
//
// The partition is branch-free. Which side of the pivot a noisy readout
// difference falls on is close to a coin toss, so a branch per comparison
// would mispredict about half the time. The 0/1 increment is computed
// apart from the index it advances because the compiler keeps a branch for
// a loop-carried conditional i++.
func selectKth(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	for hi-lo+1 >= selectCutoff {
		a, b, c := v[lo], v[lo+(hi-lo)/2], v[hi]
		p := max(min(a, b), min(max(a, b), c))
		// Move the values below p to the front: v[lo:i] < p <= v[i:hi+1].
		// p is one of the values, so i <= hi.
		i := lo
		for j := lo; j <= hi; j++ {
			x := v[j]
			v[j] = v[i]
			v[i] = x
			inc := 0
			if x < p {
				inc = 1
			}
			i += inc
		}
		if k < i {
			hi = i - 1
			continue
		}
		if i > lo {
			lo = i
			continue
		}
		// p is the range minimum. Gather its copies at the front,
		// v[lo:m] == p, so a run of equal values cannot stall the loop.
		m := lo
		for j := lo; j <= hi; j++ {
			x := v[j]
			v[j] = v[m]
			v[m] = x
			inc := 0
			if x <= p {
				inc = 1
			}
			m += inc
		}
		if k < m {
			return p
		}
		lo = m
	}
	for i := lo + 1; i <= hi; i++ {
		x := v[i]
		j := i
		for ; j > lo && x < v[j-1]; j-- {
			v[j] = v[j-1]
		}
		v[j] = x
	}
	return v[k]
}
