package core

import (
	"testing"
	"testing/quick"

	"spaceproc/internal/dataset"
)

func TestMedian3RemovesSpike(t *testing.T) {
	s := dataset.Series{100, 100, 60000, 100, 100}
	Median3{}.ProcessSeries(s, nil, nil)
	for i, v := range s {
		if v != 100 {
			t.Fatalf("spike survived at %d: %v", i, s)
		}
	}
}

func TestMedian3PreservesConstant(t *testing.T) {
	s := dataset.Series{7, 7, 7, 7, 7, 7}
	Median3{}.ProcessSeries(s, nil, nil)
	for _, v := range s {
		if v != 7 {
			t.Fatalf("constant series altered: %v", s)
		}
	}
}

func TestMedian3PreservesMonotoneInterior(t *testing.T) {
	// A monotone ramp is its own sliding median in the interior; the
	// pseudocode's endpoint windows {P1,P2,P3} and {P(N-2),P(N-1),P(N)}
	// pull the two endpoints inward.
	s := dataset.Series{10, 20, 30, 40, 50, 60}
	Median3{}.ProcessSeries(s, nil, nil)
	want := dataset.Series{20, 20, 30, 40, 50, 50}
	for i := range s {
		if s[i] != want[i] {
			t.Fatalf("ramp mismatch at %d: got %v want %v", i, s, want)
		}
	}
}

func TestMedian3ShortSeries(t *testing.T) {
	for _, s := range []dataset.Series{{}, {5}, {5, 9}} {
		want := s.Clone()
		Median3{}.ProcessSeries(s, nil, nil)
		for i := range s {
			if s[i] != want[i] {
				t.Fatalf("short series altered: %v", s)
			}
		}
	}
}

func TestMedian3MatchesPaperPseudocodeSequence(t *testing.T) {
	// Algorithm 2 is sequential and in place: P(2) sees the already
	// smoothed P(1).
	s := dataset.Series{50, 10, 40, 10, 50}
	Median3{}.ProcessSeries(s, nil, nil)
	// P(1) = med(50,10,40) = 40
	// P(2) = med(40,10,40) = 40
	// P(3) = med(40,40,10) = 40
	// P(4) = med(40,10,50) = 40
	// P(5) = med(40,40,50) = 40  (window {P(N-2),P(N-1),P(N)})
	want := dataset.Series{40, 40, 40, 40, 40}
	for i := range s {
		if s[i] != want[i] {
			t.Fatalf("sequence mismatch: got %v want %v", s, want)
		}
	}
}

func TestMedian3u16(t *testing.T) {
	tests := []struct{ a, b, c, want uint16 }{
		{1, 2, 3, 2}, {3, 2, 1, 2}, {2, 3, 1, 2}, {2, 1, 3, 2},
		{5, 5, 1, 5}, {1, 5, 5, 5}, {5, 1, 5, 5}, {4, 4, 4, 4},
	}
	for _, tt := range tests {
		if got := median3u16(tt.a, tt.b, tt.c); got != tt.want {
			t.Errorf("median3u16(%d,%d,%d) = %d, want %d", tt.a, tt.b, tt.c, got, tt.want)
		}
	}
}

func TestMedian3u16Property(t *testing.T) {
	f := func(a, b, c uint16) bool {
		m := median3u16(a, b, c)
		// The median is one of the inputs and is neither the strict max
		// nor the strict min.
		if m != a && m != b && m != c {
			return false
		}
		lo, hi := a, a
		for _, v := range []uint16{b, c} {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMedian3Name(t *testing.T) {
	if (Median3{}).Name() != "MedianSmooth3" {
		t.Fatal("name changed")
	}
}
