package core

import (
	"spaceproc/internal/dataset"
)

// Median3 is the paper's Algorithm 2: value-based median smoothing with a
// sliding window of three pixels, which the paper found to beat both wider
// median windows (more false alarms) and mean smoothing (less robust).
//
// Following the printed pseudocode, the filter runs in place and
// sequentially: P(1) is replaced first, and each P(i) is the median of the
// already-smoothed P(i-1), the current P(i), and the raw P(i+1).
type Median3 struct{}

var _ SeriesPreprocessor = Median3{}

// Name implements SeriesPreprocessor.
func (Median3) Name() string { return "MedianSmooth3" }

// ProcessSeries implements SeriesPreprocessor. The in-place sliding
// window needs no buffers, so the scratch and stats are unused.
func (Median3) ProcessSeries(s dataset.Series, _ *VoteScratch, _ *VoteStats) {
	n := len(s)
	if n < 3 {
		return
	}
	s[0] = median3u16(s[0], s[1], s[2])
	for i := 1; i < n-1; i++ {
		s[i] = median3u16(s[i-1], s[i], s[i+1])
	}
	s[n-1] = median3u16(s[n-3], s[n-2], s[n-1])
}

func median3u16(a, b, c uint16) uint16 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// median3f32 is the float payload variant used by the OTIS adaptations.
func median3f32(a, b, c float32) float32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
