package crreject

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

// The sort-based rejection below is the reference the selection kernel is
// held to: medianInPlace must return exactly these medians, and Integrate
// and IntegrateRamp exactly these images and Stats.

func medianSortOracle(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func madSigmaOracle(diffs []float64) (med, sigma float64) {
	if len(diffs) == 0 {
		return 0, 0
	}
	med = medianSortOracle(diffs)
	abs := make([]float64, len(diffs))
	for i, v := range diffs {
		abs[i] = math.Abs(v - med)
	}
	return med, 1.4826 * medianSortOracle(abs)
}

func integrateOracle(cfg Config, s *dataset.Stack, series func(Config, dataset.Series) (uint16, int)) (*dataset.Image, Stats) {
	w, h := s.Width(), s.Height()
	out := dataset.NewImage(w, h)
	var stats Stats
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v, steps := series(cfg, s.SeriesAt(x, y))
			out.Set(x, y, v)
			if steps > 0 {
				stats.Hits++
				stats.Steps += steps
			}
		}
	}
	return out, stats
}

func seriesDiffs(ser dataset.Series) []float64 {
	diffs := make([]float64, 0, len(ser))
	for i := 1; i < len(ser); i++ {
		diffs = append(diffs, float64(ser[i])-float64(ser[i-1]))
	}
	return diffs
}

func integrateSeriesOracle(cfg Config, ser dataset.Series) (uint16, int) {
	n := len(ser)
	if n <= 1 {
		return integrateTiny(ser)
	}
	_, sigma := madSigmaOracle(seriesDiffs(ser))
	sigma = math.Max(sigma, cfg.SigmaFloor)
	vals := make([]float64, n)
	for i, v := range ser {
		vals[i] = float64(v)
	}
	steps := 0
	var offset, sum float64
	for i := 1; i < n; i++ {
		vals[i] -= offset
		if d := vals[i] - vals[i-1]; math.Abs(d) > cfg.Threshold*sigma {
			offset += d
			vals[i] -= d
			steps++
		}
	}
	for _, v := range vals {
		sum += v
	}
	return clampCharge(sum / float64(n)), steps
}

func integrateRampSeriesOracle(cfg Config, ser dataset.Series) (uint16, int) {
	n := len(ser)
	if n <= 1 {
		return integrateTiny(ser)
	}
	diffs := seriesDiffs(ser)
	med, sigma := madSigmaOracle(diffs)
	sigma = math.Max(sigma, cfg.SigmaFloor)
	var sum float64
	var kept, steps int
	for _, d := range diffs {
		if math.Abs(d-med) > cfg.Threshold*sigma {
			steps++
			continue
		}
		sum += d
		kept++
	}
	if kept == 0 {
		return clampCharge(float64(ser[n-1])), steps
	}
	return clampCharge(float64(ser[0]) + sum/float64(kept)*float64(n-1)), steps
}

func integrateTiny(ser dataset.Series) (uint16, int) {
	if len(ser) == 0 {
		return 0, 0
	}
	return ser[0], 0
}

// TestIntegrateMatchesSortOracle runs both integrators on fault-injected
// synth scenes at depths covering both median parities, the series lengths
// on either side of the insertion-sort cutoff (a depth of d gives d-1
// differences), and the pipeline's 64 readouts, and requires images and
// Stats bit-identical to the sort oracle.
func TestIntegrateMatchesSortOracle(t *testing.T) {
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []synth.ReadoutMode{synth.Stationary, synth.Ramp} {
		for _, depth := range []int{1, 2, 3, 4, 5, selectCutoff, selectCutoff + 1, 16, 17, 63, 64, 65} {
			t.Run(fmt.Sprintf("%v/depth=%d", mode, depth), func(t *testing.T) {
				cfg := synth.DefaultSceneConfig()
				cfg.Mode = mode
				cfg.Width, cfg.Height = 24, 24
				cfg.Readouts = depth
				sc, err := synth.NewScene(cfg, rng.New(uint64(depth)))
				if err != nil {
					t.Fatal(err)
				}
				st := sc.Observed
				if flips := (fault.Uncorrelated{Gamma0: 0.01}).InjectStack(st, rng.New(uint64(100+depth))); flips == 0 {
					t.Fatal("no faults injected")
				}
				integrate, oracle := r.Integrate, integrateSeriesOracle
				if mode == synth.Ramp {
					integrate, oracle = r.IntegrateRamp, integrateRampSeriesOracle
				}
				got, gotStats := integrate(st)
				want, wantStats := integrateOracle(r.cfg, st, oracle)
				if gotStats != wantStats {
					t.Fatalf("Stats = %+v, sort oracle %+v", gotStats, wantStats)
				}
				for i := range want.Pix {
					if got.Pix[i] != want.Pix[i] {
						t.Fatalf("pixel %d = %d, sort oracle %d", i, got.Pix[i], want.Pix[i])
					}
				}
			})
		}
	}
}

// FuzzMedianSelect checks the selection kernel against a full sort on
// integer-valued slices (half-integers too, as the MAD pass produces). The
// first byte picks how far values are shifted down, so high shifts give
// slices made almost entirely of duplicates. Every k is checked, so inputs
// are capped at 256 values to keep each run quadratic in a small n.
func FuzzMedianSelect(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{7, 0x80, 0x7f, 0x80, 0x7f, 0x00, 0x80})
	f.Add([]byte{8, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Add([]byte("\x03the quick brown fox jumps over the lazy dog 0123456789"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		shift := data[0] & 7
		scale := 1.0
		if data[0]&8 != 0 {
			scale = 0.5
		}
		body := data[1:]
		if len(body) > 256 {
			body = body[:256]
		}
		in := make([]float64, len(body))
		for i, b := range body {
			in[i] = float64(int8(b)>>shift) * scale
		}
		sorted := append([]float64(nil), in...)
		sort.Float64s(sorted)

		v := append([]float64(nil), in...)
		if got, want := medianInPlace(v), medianSortOracle(in); got != want {
			t.Fatalf("medianInPlace(%v) = %v, sort oracle %v", in, got, want)
		}
		for k := range in {
			v := append([]float64(nil), in...)
			if got := selectKth(v, k); got != sorted[k] {
				t.Fatalf("selectKth(%v, %d) = %v, want %v", in, k, got, sorted[k])
			}
			for i, x := range v {
				if (i < k && x > v[k]) || (i > k && x < v[k]) {
					t.Fatalf("selectKth(%v, %d) left %v unpartitioned", in, k, v)
				}
			}
			sort.Float64s(v)
			for i := range v {
				if v[i] != sorted[i] {
					t.Fatalf("selectKth(%v, %d) changed the values: %v", in, k, v)
				}
			}
		}
	})
}
