package core

import (
	"spaceproc/internal/bitutil"
	"spaceproc/internal/dataset"
)

// MajorityBit3 is the paper's Algorithm 3: sliding-window bitwise majority
// voting with a window of three pixels. Where median smoothing discards a
// deviant pixel's entire 16-bit representation, bit voting salvages the 15
// uncorrupted bits of a single-flip pixel by voting each bit plane
// independently against the same bit of the two temporal neighbors.
//
// Boundary handling follows the printed pseudocode's reflection
// (P(0) = P(3), P(N+1) = P(N-2), 1-indexed). Votes are computed against the
// original input (a sequential in-place pass would feed already-voted
// values into later windows, which the all-at-once matrix formulation of
// the pseudocode does not do).
type MajorityBit3 struct{}

var _ SeriesPreprocessor = MajorityBit3{}

// Name implements SeriesPreprocessor.
func (MajorityBit3) Name() string { return "MajorityBitVote3" }

// ProcessSeries implements SeriesPreprocessor: the vote-against-original
// snapshot lives in the scratch, so a warm scratch makes the pass
// allocation-free. stats is ignored (the generic baselines do not collect
// correction telemetry).
func (MajorityBit3) ProcessSeries(s dataset.Series, sc *VoteScratch, _ *VoteStats) {
	n := len(s)
	if n < 3 {
		return
	}
	if sc == nil {
		sc = new(VoteScratch)
	}
	if cap(sc.ser16) < n {
		sc.ser16 = make(dataset.Series, n)
	}
	orig := sc.ser16[:n]
	copy(orig, s)
	at := func(i int) uint16 {
		switch {
		case i < 0:
			return orig[2] // P(0) = P(3) in the paper's 1-indexing
		case i >= n:
			return orig[n-3] // P(N+1) = P(N-2)
		default:
			return orig[i]
		}
	}
	for i := 0; i < n; i++ {
		s[i] = bitutil.MajorityVote3(at(i-1), at(i), at(i+1))
	}
}
