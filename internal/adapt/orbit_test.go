package adapt

import (
	"math"
	"testing"

	"spaceproc/internal/core"
	"spaceproc/internal/fault"
	"spaceproc/internal/metrics"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

func TestOrbitValidate(t *testing.T) {
	if err := DefaultOrbit().Validate(); err != nil {
		t.Fatalf("default orbit invalid: %v", err)
	}
	bad := DefaultOrbit()
	bad.BaseRate = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative base rate should be invalid")
	}
	bad = DefaultOrbit()
	bad.SAAPeak = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("peak pushing rate above 1 should be invalid")
	}
	bad = DefaultOrbit()
	bad.SAAWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero width should be invalid")
	}
	bad = DefaultOrbit()
	bad.SAACenter = 1.2
	if err := bad.Validate(); err == nil {
		t.Error("center outside [0,1) should be invalid")
	}
}

func TestOrbitRateShape(t *testing.T) {
	o := DefaultOrbit()
	// Peak at the SAA center, near-quiet on the far side.
	peak := o.RateAt(o.SAACenter)
	if math.Abs(peak-(o.BaseRate+o.SAAPeak)) > 1e-9 {
		t.Fatalf("rate at SAA center = %v, want %v", peak, o.BaseRate+o.SAAPeak)
	}
	far := o.RateAt(o.SAACenter + 0.5)
	if far > o.BaseRate*1.05 {
		t.Fatalf("rate on the far side = %v, want ~base %v", far, o.BaseRate)
	}
	// Wrapping: phases outside [0,1) behave periodically.
	if math.Abs(o.RateAt(o.SAACenter+1)-peak) > 1e-9 {
		t.Fatal("rate not periodic in phase")
	}
	if math.Abs(o.RateAt(o.SAACenter-1)-peak) > 1e-9 {
		t.Fatal("rate not periodic for negative phase")
	}
}

func TestOrbitWrapAroundBump(t *testing.T) {
	o := Orbit{BaseRate: 0.001, SAAPeak: 0.05, SAACenter: 0.02, SAAWidth: 0.05}
	// Phase 0.98 is 0.04 away through the wrap, not 0.96.
	near := o.RateAt(0.98)
	if near < o.BaseRate+o.SAAPeak*0.5 {
		t.Fatalf("wrapped distance not used: rate(0.98) = %v", near)
	}
}

func quickCalibration(t *testing.T) *Calibration {
	t.Helper()
	cfg := DefaultCalibrationConfig()
	cfg.Trials = 8
	cfg.Rates = []float64{0.001, 0.01, 0.05}
	cfg.Lambdas = []int{40, 80, 100}
	cal, err := Calibrate(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

func TestCalibrateProducesFullTable(t *testing.T) {
	cal := quickCalibration(t)
	if len(cal.Lambdas) != len(cal.Rates) {
		t.Fatalf("table size mismatch: %d lambdas, %d rates", len(cal.Lambdas), len(cal.Rates))
	}
	for i, l := range cal.Lambdas {
		if l < 40 || l > 100 {
			t.Fatalf("lambda[%d] = %d outside the candidate grid", i, l)
		}
	}
	// Optimal sensitivity should not decrease as the rate grows (the
	// fig-2 pattern); allow equal.
	for i := 1; i < len(cal.Lambdas); i++ {
		if cal.Lambdas[i] < cal.Lambdas[i-1] {
			t.Fatalf("calibrated lambda decreasing with rate: %v", cal.Lambdas)
		}
	}
}

func TestCalibrateValidation(t *testing.T) {
	bad := DefaultCalibrationConfig()
	bad.Trials = 0
	if _, err := Calibrate(bad, 1); err == nil {
		t.Error("zero trials should be invalid")
	}
	bad = DefaultCalibrationConfig()
	bad.Rates = []float64{0.01, 0.001}
	if _, err := Calibrate(bad, 1); err == nil {
		t.Error("non-ascending rates should be invalid")
	}
	bad = DefaultCalibrationConfig()
	bad.Lambdas = nil
	if _, err := Calibrate(bad, 1); err == nil {
		t.Error("empty lambda grid should be invalid")
	}
}

func TestPick(t *testing.T) {
	cal := &Calibration{Rates: []float64{0.001, 0.01, 0.1}, Lambdas: []int{40, 80, 100}}
	tests := []struct {
		rate float64
		want int
	}{
		{0.0001, 40}, // below the grid
		{0.001, 40},
		{0.003, 40}, // log-nearest to 0.001 (0.003 is closer to 0.001 than 0.01 in log space? log10: -2.52 vs -3 and -2 -> nearest -2.52+3=0.48 vs 0.52 -> 0.001)
		{0.004, 80}, // log-nearest to 0.01
		{0.05, 100}, // log-nearest to 0.1
		{1.0, 100},  // above the grid
		{0, 40},     // degenerate rate
	}
	for _, tt := range tests {
		if got := cal.Pick(tt.rate); got != tt.want {
			t.Errorf("Pick(%v) = %d, want %d", tt.rate, got, tt.want)
		}
	}
	empty := &Calibration{}
	if got := empty.Pick(0.01); got != 80 {
		t.Errorf("empty calibration Pick = %d, want default 80", got)
	}
}

func TestAdaptiveBeatsFixedAcrossOrbit(t *testing.T) {
	// The headline of the extension: over a full orbit with quiet phases
	// and SAA passes, the controller's per-phase Lambda must not lose to
	// any single fixed Lambda.
	cal := quickCalibration(t)
	orbit := DefaultOrbit()
	ctrl := &Controller{Orbit: orbit, Calibration: cal}

	phases := []float64{0, 0.1, 0.2, 0.3, 0.35, 0.4, 0.5, 0.7, 0.9}
	run := func(pick func(phase float64) int) float64 {
		var acc metrics.Accumulator
		for pi, phase := range phases {
			a, err := core.NewAlgoNGST(core.NGSTConfig{Upsilon: 4, Sensitivity: pick(phase)})
			if err != nil {
				t.Fatal(err)
			}
			injector := fault.Uncorrelated{Gamma0: orbit.RateAt(phase)}
			for trial := 0; trial < 10; trial++ {
				dataSrc := rng.NewStream(7, uint64(pi*100+trial)*2)
				faultSrc := rng.NewStream(7, uint64(pi*100+trial)*2+1)
				ideal, err := synth.GaussianSeries(synth.SeriesConfig{N: 64, Initial: 27000, Sigma: 250}, dataSrc)
				if err != nil {
					t.Fatal(err)
				}
				damaged := ideal.Clone()
				injector.InjectSeries(damaged, faultSrc)
				a.ProcessSeries(damaged, nil, nil)
				acc.Add(metrics.SeriesError(damaged, ideal))
			}
		}
		return acc.Mean()
	}
	adaptive := run(ctrl.SensitivityAt)
	fixed40 := run(func(float64) int { return 40 })
	fixed100 := run(func(float64) int { return 100 })
	if adaptive > fixed40*1.02 && adaptive > fixed100*1.02 {
		t.Fatalf("adaptive (%.6g) lost to both fixed-40 (%.6g) and fixed-100 (%.6g)",
			adaptive, fixed40, fixed100)
	}
}
