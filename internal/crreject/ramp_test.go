package crreject

import (
	"math"
	"testing"

	"spaceproc/internal/core"
	"spaceproc/internal/dataset"
	"spaceproc/internal/metrics"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

func newTestAlgo(t *testing.T) *core.AlgoNGST {
	t.Helper()
	a, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestIntegrateRampCleanRamp(t *testing.T) {
	// Noiseless ramp accumulating 100 counts per readout over 16
	// readouts: total charge 1600.
	st := dataset.NewStack(16, 2, 2)
	for i, f := range st.Frames {
		for j := range f.Pix {
			f.Pix[j] = uint16(100 * (i + 1))
		}
	}
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img, stats := r.IntegrateRamp(st)
	if stats.Hits != 0 {
		t.Fatalf("clean ramp produced rejections: %+v", stats)
	}
	for _, p := range img.Pix {
		if p != 1600 {
			t.Fatalf("integrated charge %d, want 1600", p)
		}
	}
}

func TestIntegrateRampRemovesCRStep(t *testing.T) {
	// A CR at readout 6 deposits +5000 on top of a 100/readout ramp.
	st := dataset.NewStack(16, 1, 1)
	level := 0
	for i, f := range st.Frames {
		level += 100
		if i == 6 {
			level += 5000
		}
		f.Pix[0] = uint16(level)
	}
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img, stats := r.IntegrateRamp(st)
	if stats.Steps != 1 {
		t.Fatalf("steps = %d, want 1", stats.Steps)
	}
	if got := img.Pix[0]; got != 1600 {
		t.Fatalf("integrated charge %d, want 1600", got)
	}
}

func TestIntegrateRampScene(t *testing.T) {
	cfg := synth.DefaultSceneConfig()
	cfg.Mode = synth.Ramp
	cfg.Width, cfg.Height = 32, 32
	cfg.TemporalSigma = 20
	cfg.Stars = 0 // keep the mean comparable to the background level
	sc, err := synth.NewScene(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, stats := r.IntegrateRamp(sc.Observed)
	want, _ := r.IntegrateRamp(sc.Ideal)
	if stats.Hits == 0 {
		t.Fatal("no CR hits detected on a 10%-rate ramp scene")
	}
	if psi := metrics.RelativeError16(got.Pix, want.Pix); psi > 0.02 {
		t.Fatalf("ramp CR rejection residual %.4f too high", psi)
	}
	// And the total charge should approximate the scene level: compare
	// the ideal integration against the configured background.
	var sum float64
	for _, p := range want.Pix {
		sum += float64(p)
	}
	mean := sum / float64(len(want.Pix))
	if math.Abs(mean-cfg.Background)/cfg.Background > 0.25 {
		t.Fatalf("integrated ramp mean %.0f far from scene background %.0f", mean, cfg.Background)
	}
}

func TestIntegrateRampTinySeries(t *testing.T) {
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img, _ := r.IntegrateRamp(dataset.NewStack(1, 1, 1))
	if img.Pix[0] != 0 {
		t.Fatal("single-readout ramp mishandled")
	}
}

func TestRampModeString(t *testing.T) {
	if synth.Stationary.String() != "Stationary" || synth.Ramp.String() != "Ramp" {
		t.Fatal("mode names wrong")
	}
	if synth.ReadoutMode(9).String() == "" {
		t.Fatal("unknown mode should format")
	}
}

func TestRampSceneValidation(t *testing.T) {
	cfg := synth.DefaultSceneConfig()
	cfg.Mode = synth.ReadoutMode(42)
	if _, err := synth.NewScene(cfg, rng.New(1)); err == nil {
		t.Fatal("unknown mode should error")
	}
}

func TestRampPreprocessingStillRepairsFlips(t *testing.T) {
	// The voter thresholds adapt to the constant-slope differences, so
	// AlgoNGST keeps working on accumulating ramps. Exercised here via a
	// high-bit flip in the middle of a noisy ramp.
	cfg := synth.DefaultSceneConfig()
	cfg.Mode = synth.Ramp
	cfg.Width, cfg.Height = 8, 8
	cfg.CRRate = 0
	sc, err := synth.NewScene(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	ser := sc.Observed.SeriesAt(4, 4)
	want := ser.Clone()
	ser[30] ^= 1 << 14

	pre := newTestAlgo(t)
	pre.ProcessSeries(ser, nil, nil)
	if ser[30] != want[30] {
		t.Fatalf("ramp flip not repaired: %d != %d", ser[30], want[30])
	}
	// Undamaged ramp samples stay put.
	diffs := 0
	for i := range ser {
		if ser[i] != want[i] {
			diffs++
		}
	}
	if diffs > 1 {
		t.Fatalf("%d unrelated samples modified", diffs)
	}
}
