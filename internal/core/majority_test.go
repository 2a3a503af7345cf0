package core

import (
	"testing"

	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/metrics"
	"spaceproc/internal/rng"
)

func TestMajorityBit3RepairsSingleFlip(t *testing.T) {
	s := dataset.Series{1000, 1000, 1000, 1000, 1000}
	s[2] ^= 1 << 12
	MajorityBit3{}.ProcessSeries(s, nil, nil)
	for i, v := range s {
		if v != 1000 {
			t.Fatalf("flip survived at %d: %v", i, s)
		}
	}
}

func TestMajorityBit3SalvagesUncorruptedBits(t *testing.T) {
	// The motivating case of Section 4.2: a pixel with one flipped bit
	// keeps its other 15 bits, where median smoothing would discard the
	// whole word. Value 0x2AAA among neighbors 0x2AAB and 0x2AA8: every
	// bit is voted independently.
	s := dataset.Series{0x2AAB, 0x2AAA ^ 0x4000, 0x2AA8}
	MajorityBit3{}.ProcessSeries(s, nil, nil)
	if s[1]&0x4000 != 0 {
		t.Fatalf("flipped bit 14 not repaired: %#x", s[1])
	}
	// Low bits become the majority of the window, not a copy of a
	// neighbor: bit 0 of {1,0,0} is 0, bit 1 of {1,1,0} is 1.
	if s[1]&0x3 != 0x2 {
		t.Fatalf("low bits = %#x, want 0x2", s[1]&0x3)
	}
}

func TestMajorityBit3VotesFromOriginalValues(t *testing.T) {
	// If the pass were in-place sequential, s[1]'s already-voted value
	// would contaminate s[2]'s window. Construct a case distinguishing
	// the two: with original-value voting, s[2] = maj(s1,s2,s3).
	s := dataset.Series{0x00FF, 0x0F0F, 0x00FF, 0x0F0F, 0x00FF}
	orig := s.Clone()
	MajorityBit3{}.ProcessSeries(s, nil, nil)
	want2 := (orig[1] & orig[2]) | (orig[2] & orig[3]) | (orig[1] & orig[3])
	if s[2] != want2 {
		t.Fatalf("s[2] = %#x, want %#x (voted from originals)", s[2], want2)
	}
}

func TestMajorityBit3Boundaries(t *testing.T) {
	// P(0) = P(3), P(N+1) = P(N-2) (1-indexed reflection per the paper).
	s := dataset.Series{0xF000, 0x0F00, 0x00F0, 0x000F}
	orig := s.Clone()
	MajorityBit3{}.ProcessSeries(s, nil, nil)
	first := (orig[2] & orig[0]) | (orig[0] & orig[1]) | (orig[2] & orig[1])
	if s[0] != first {
		t.Fatalf("s[0] = %#x, want %#x", s[0], first)
	}
	last := (orig[2] & orig[3]) | (orig[3] & orig[1]) | (orig[2] & orig[1])
	if s[3] != last {
		t.Fatalf("s[3] = %#x, want %#x", s[3], last)
	}
}

func TestMajorityBit3ShortSeries(t *testing.T) {
	s := dataset.Series{42, 17}
	MajorityBit3{}.ProcessSeries(s, nil, nil)
	if s[0] != 42 || s[1] != 17 {
		t.Fatal("short series must be untouched")
	}
}

func TestMajorityBit3Name(t *testing.T) {
	if (MajorityBit3{}).Name() != "MajorityBitVote3" {
		t.Fatal("name changed")
	}
}

func TestMajorityAndMedianBothReduceError(t *testing.T) {
	// On 16-bit temporal series both generic filters must substantially
	// beat no preprocessing. (Their relative order depends on the data:
	// the paper ranks majority above median on OTIS float planes — tested
	// with the cube filters — while Figure 2 compares Algo_NGST against
	// median on NGST series.)
	var maj, med, raw metrics.Accumulator
	injector := fault.Uncorrelated{Gamma0: 0.02}
	for trial := uint64(0); trial < 50; trial++ {
		ideal := gaussianSeries(t, 20, 5000+trial)
		damaged := ideal.Clone()
		injector.InjectSeries(damaged, rng.NewStream(7, trial))
		raw.Add(metrics.SeriesError(damaged, ideal))

		a := damaged.Clone()
		MajorityBit3{}.ProcessSeries(a, nil, nil)
		maj.Add(metrics.SeriesError(a, ideal))

		b := damaged.Clone()
		Median3{}.ProcessSeries(b, nil, nil)
		med.Add(metrics.SeriesError(b, ideal))
	}
	if maj.Mean() >= raw.Mean()/5 {
		t.Fatalf("majority voting Psi %.5f, no-preprocessing %.5f: want >= 5x reduction", maj.Mean(), raw.Mean())
	}
	if med.Mean() >= raw.Mean()/5 {
		t.Fatalf("median Psi %.5f, no-preprocessing %.5f: want >= 5x reduction", med.Mean(), raw.Mean())
	}
}
