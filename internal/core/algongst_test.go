package core

import (
	"testing"

	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/metrics"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

func TestNGSTConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  NGSTConfig
		ok   bool
	}{
		{"default", DefaultNGSTConfig(), true},
		{"upsilon 2", NGSTConfig{Upsilon: 2, Sensitivity: 50}, true},
		{"upsilon 6", NGSTConfig{Upsilon: 6, Sensitivity: 100}, true},
		{"odd upsilon", NGSTConfig{Upsilon: 3, Sensitivity: 50}, false},
		{"zero upsilon", NGSTConfig{Upsilon: 0, Sensitivity: 50}, false},
		{"negative sensitivity", NGSTConfig{Upsilon: 4, Sensitivity: -1}, false},
		{"sensitivity 101", NGSTConfig{Upsilon: 4, Sensitivity: 101}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewAlgoNGST(tt.cfg)
			if (err == nil) != tt.ok {
				t.Fatalf("NewAlgoNGST(%+v) err = %v, want ok=%v", tt.cfg, err, tt.ok)
			}
		})
	}
}

func TestAlgoNGSTName(t *testing.T) {
	a, err := NewAlgoNGST(NGSTConfig{Upsilon: 4, Sensitivity: 80})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "Algo_NGST(Y=4,L=80)" {
		t.Fatalf("Name = %q", a.Name())
	}
	if a.Config().Upsilon != 4 {
		t.Fatalf("Config lost: %+v", a.Config())
	}
}

func TestAlgoNGSTZeroSensitivityIsNoOp(t *testing.T) {
	a, err := NewAlgoNGST(NGSTConfig{Upsilon: 4, Sensitivity: 0})
	if err != nil {
		t.Fatal(err)
	}
	s := dataset.Series{1, 60000, 3, 4, 5, 6, 7, 8}
	want := s.Clone()
	a.ProcessSeries(s, nil, nil)
	for i := range s {
		if s[i] != want[i] {
			t.Fatalf("lambda=0 modified the series at %d", i)
		}
	}
}

// gaussianSeries draws a paper-model series for tests.
func gaussianSeries(t *testing.T, sigma float64, seed uint64) dataset.Series {
	t.Helper()
	ser, err := synth.GaussianSeries(synth.SeriesConfig{N: 64, Initial: 27000, Sigma: sigma}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ser
}

func TestAlgoNGSTReducesInjectedError(t *testing.T) {
	// The headline claim of Figure 2 in miniature: at Gamma0 = 2.5% the
	// preprocessed relative error must be far below the damaged error.
	a, err := NewAlgoNGST(DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	injector := fault.Uncorrelated{Gamma0: 0.025}
	var before, after metrics.Accumulator
	for trial := uint64(0); trial < 50; trial++ {
		ideal := gaussianSeries(t, 250, 1000+trial)
		damaged := ideal.Clone()
		injector.InjectSeries(damaged, rng.NewStream(42, trial))
		before.Add(metrics.SeriesError(damaged, ideal))
		a.ProcessSeries(damaged, nil, nil)
		after.Add(metrics.SeriesError(damaged, ideal))
	}
	if gain := metrics.Gain(before.Mean(), after.Mean()); gain < 10 {
		t.Fatalf("gain = %.1fx (before %.4g, after %.4g); the paper reports order 50-1000x",
			gain, before.Mean(), after.Mean())
	}
}

func TestAlgoNGSTDeterministic(t *testing.T) {
	a, err := NewAlgoNGST(DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	ideal := gaussianSeries(t, 250, 7)
	damaged := ideal.Clone()
	fault.Uncorrelated{Gamma0: 0.05}.InjectSeries(damaged, rng.New(8))
	s1 := damaged.Clone()
	s2 := damaged.Clone()
	a.ProcessSeries(s1, nil, nil)
	a.ProcessSeries(s2, nil, nil)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("non-deterministic output at %d", i)
		}
	}
}

func TestAlgoNGSTLowFalseAlarmsOnCleanData(t *testing.T) {
	// Clean (fault-free) Gaussian data should pass nearly unchanged at
	// the default sensitivity: the dynamic thresholds adapt to sigma.
	a, err := NewAlgoNGST(DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	var psi metrics.Accumulator
	for trial := uint64(0); trial < 50; trial++ {
		ideal := gaussianSeries(t, 250, 2000+trial)
		got := ideal.Clone()
		a.ProcessSeries(got, nil, nil)
		psi.Add(metrics.SeriesError(got, ideal))
	}
	if psi.Mean() > 0.002 {
		t.Fatalf("false-alarm error on clean data = %.5f, want < 0.002", psi.Mean())
	}
}

func TestAlgoNGSTBeatsMedianSmoothing(t *testing.T) {
	// Figure 2's qualitative ordering at practical Gamma0.
	a, err := NewAlgoNGST(DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ngst, median metrics.Accumulator
	injector := fault.Uncorrelated{Gamma0: 0.025}
	for trial := uint64(0); trial < 50; trial++ {
		ideal := gaussianSeries(t, 250, 3000+trial)
		damaged := ideal.Clone()
		injector.InjectSeries(damaged, rng.NewStream(99, trial))

		forNGST := damaged.Clone()
		a.ProcessSeries(forNGST, nil, nil)
		ngst.Add(metrics.SeriesError(forNGST, ideal))

		forMed := damaged.Clone()
		Median3{}.ProcessSeries(forMed, nil, nil)
		median.Add(metrics.SeriesError(forMed, ideal))
	}
	if ngst.Mean() >= median.Mean() {
		t.Fatalf("Algo_NGST Psi %.5f not below median smoothing Psi %.5f", ngst.Mean(), median.Mean())
	}
}

func TestProcessStackWithAppliesPerCoordinate(t *testing.T) {
	cfg := synth.SeriesConfig{N: 16, Initial: 27000, Sigma: 100}
	st, err := synth.GaussianStack(cfg, 8, 8, 2000, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	ideal := st.Clone()
	// Flip a high bit of one coordinate in one readout.
	st.Frames[7].Set(3, 4, st.Frames[7].At(3, 4)^(1<<15))

	a, err := NewAlgoNGST(DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	ProcessStackWith(a, st)
	if got, want := st.Frames[7].At(3, 4), ideal.Frames[7].At(3, 4); got != want {
		t.Fatalf("stack flip not repaired: %d != %d", got, want)
	}
	// Other coordinates must be untouched or nearly so.
	if psi := metrics.StackError(st, ideal); psi > 1e-3 {
		t.Fatalf("stack-wide residual error %.5f too high", psi)
	}
}
