package nvp

import (
	"errors"
	"testing"

	"spaceproc/internal/core"
	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

// mean is the "specification" the test versions implement.
func mean(s []float64) ([]float64, error) {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return []float64{sum / float64(len(s))}, nil
}

func threeVersions() []func([]float64) ([]float64, error) {
	// Three independently written means: accumulate, two-pass
	// (Kahan-ish), and sort-free pairwise.
	v2 := func(s []float64) ([]float64, error) {
		var sum, c float64
		for _, v := range s {
			y := v - c
			t := sum + y
			c = (t - sum) - y
			sum = t
		}
		return []float64{sum / float64(len(s))}, nil
	}
	v3 := func(s []float64) ([]float64, error) {
		m := 0.0
		for i, v := range s {
			m += (v - m) / float64(i+1)
		}
		return []float64{m}, nil
	}
	return []func([]float64) ([]float64, error){mean, v2, v3}
}

func newExec(t *testing.T, versions []func([]float64) ([]float64, error), threshold int) *Executor[[]float64, []float64] {
	t.Helper()
	e, err := New(Config[[]float64, []float64]{
		Versions: versions,
		Agree:    FloatSliceComparator(1e-9, 1e-12),
		T:        threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	good := Config[int, int]{
		Versions: []func(int) (int, error){func(v int) (int, error) { return v, nil }, func(v int) (int, error) { return v, nil }},
		Agree:    func(a, b int) bool { return a == b },
		T:        1,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config invalid: %v", err)
	}
	bad := good
	bad.Versions = bad.Versions[:1]
	if err := bad.Validate(); err == nil {
		t.Error("single version should be invalid")
	}
	bad = good
	bad.Agree = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil comparator should be invalid")
	}
	bad = good
	bad.T = 2
	if err := bad.Validate(); err == nil {
		t.Error("T > n-1 should be invalid")
	}
	bad = good
	bad.Versions = []func(int) (int, error){good.Versions[0], nil}
	if err := bad.Validate(); err == nil {
		t.Error("nil version should be invalid")
	}
}

func TestHealthyVersionsAgree(t *testing.T) {
	e := newExec(t, threeVersions(), 2)
	out, rep, err := e.Run([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2.5 {
		t.Fatalf("mean = %v", out[0])
	}
	if rep.Winner < 0 || len(rep.Crashed) != 0 {
		t.Fatalf("report %+v", rep)
	}
}

func TestBuggyVersionOutvoted(t *testing.T) {
	vs := threeVersions()
	vs[1] = func(s []float64) ([]float64, error) { return []float64{-999}, nil } // design bug
	e := newExec(t, vs, 1)
	out, rep, err := e.Run([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2.5 {
		t.Fatalf("voter released the buggy output: %v", out)
	}
	if rep.Winner == 1 {
		t.Fatal("buggy version won")
	}
}

func TestCrashedVersionTolerated(t *testing.T) {
	vs := threeVersions()
	vs[0] = func([]float64) ([]float64, error) { return nil, errors.New("node lost") }
	e := newExec(t, vs, 1)
	out, rep, err := e.Run([]float64{2, 4})
	if err != nil || out[0] != 3 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	if len(rep.Crashed) != 1 || rep.Crashed[0] != 0 {
		t.Fatalf("crash not reported: %+v", rep)
	}
}

func TestPanicContained(t *testing.T) {
	vs := threeVersions()
	vs[2] = func([]float64) ([]float64, error) { panic("boom") }
	e := newExec(t, vs, 1)
	if _, _, err := e.Run([]float64{1, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestNoConsensus(t *testing.T) {
	vs := []func([]float64) ([]float64, error){
		func([]float64) ([]float64, error) { return []float64{1}, nil },
		func([]float64) ([]float64, error) { return []float64{2}, nil },
		func([]float64) ([]float64, error) { return []float64{3}, nil },
	}
	e := newExec(t, vs, 1)
	if _, _, err := e.Run(nil); !errors.Is(err, ErrNoConsensus) {
		t.Fatalf("err = %v, want ErrNoConsensus", err)
	}
}

func TestUnanimityThreshold(t *testing.T) {
	vs := threeVersions()
	vs[1] = func(s []float64) ([]float64, error) { return []float64{-1}, nil }
	e := newExec(t, vs, 2) // unanimity among the others required
	if _, _, err := e.Run([]float64{5, 5}); !errors.Is(err, ErrNoConsensus) {
		t.Fatalf("err = %v, want ErrNoConsensus at T=2 with one dissenter", err)
	}
}

func TestFloatSliceComparator(t *testing.T) {
	cmp := FloatSliceComparator(0.01, 1e-9)
	if !cmp([]float64{100}, []float64{100.5}) {
		t.Error("within relative tolerance should agree")
	}
	if cmp([]float64{100}, []float64{102}) {
		t.Error("outside tolerance should disagree")
	}
	if cmp([]float64{1}, []float64{1, 2}) {
		t.Error("length mismatch should disagree")
	}
	if !cmp([]float64{0}, []float64{0}) {
		t.Error("zeros should agree via absolute floor")
	}
	if !cmp([]float64{-100}, []float64{-100.5}) {
		t.Error("negative magnitudes should use |a|")
	}
}

// TestCorruptedInputDefeatsNVP is the paper's introduction in code: all
// versions process the same corrupted series and agree on the same wrong
// answer; the voter releases it with full confidence. Input preprocessing
// repairs what NVP cannot see.
func TestCorruptedInputDefeatsNVP(t *testing.T) {
	ideal, err := synth.GaussianSeries(synth.SeriesConfig{N: 64, Initial: 27000, Sigma: 100}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	damaged := ideal.Clone()
	fault.Uncorrelated{Gamma0: 0.05}.InjectSeries(damaged, rng.New(2))

	// The science product is the peak reading (photometry of a point
	// source): a single high-bit flip anywhere corrupts it, and the
	// damage does not average away as it would for a mean.
	peakOf := func(s dataset.Series) float64 {
		var peak float64
		for _, v := range s {
			if f := float64(v); f > peak {
				peak = f
			}
		}
		return peak
	}
	truth := peakOf(ideal)

	versions := []func(dataset.Series) ([]float64, error){
		func(s dataset.Series) ([]float64, error) { return []float64{peakOf(s)}, nil },
		func(s dataset.Series) ([]float64, error) { return []float64{peakOf(s)}, nil },
		func(s dataset.Series) ([]float64, error) { return []float64{peakOf(s)}, nil },
	}
	e, err := New(Config[dataset.Series, []float64]{
		Versions: versions,
		Agree:    FloatSliceComparator(1e-6, 1e-9),
		T:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := e.Run(damaged)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Winner < 0 {
		t.Fatal("voter should reach (false) consensus")
	}
	wrong := abs(out[0]-truth) / truth
	if wrong < 0.005 {
		t.Fatalf("input damage too small to demonstrate the failure (%.4f)", wrong)
	}

	// Preprocess the input first: the same NVP released output is now
	// close to the truth.
	pre, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	cleaned := ideal.Clone()
	fault.Uncorrelated{Gamma0: 0.05}.InjectSeries(cleaned, rng.New(2))
	pre.ProcessSeries(cleaned, nil, nil)
	out2, _, err := e.Run(cleaned)
	if err != nil {
		t.Fatal(err)
	}
	fixed := abs(out2[0]-truth) / truth
	if fixed*5 > wrong {
		t.Fatalf("preprocessing gained too little: wrong %.5f, preprocessed %.5f", wrong, fixed)
	}
}
