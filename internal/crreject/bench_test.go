package crreject

import (
	"fmt"
	"testing"

	"spaceproc/internal/dataset"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

// benchImage keeps the measured call's result live so the compiler cannot
// drop the call.
var benchImage *dataset.Image

// benchScene builds the 128x128 synth baseline the CR-rejection benchmarks
// integrate: the pipeline's tile size at the given readout depth.
func benchScene(b *testing.B, mode synth.ReadoutMode, depth int) *dataset.Stack {
	b.Helper()
	cfg := synth.DefaultSceneConfig()
	cfg.Mode = mode
	cfg.Width, cfg.Height = 128, 128
	cfg.Readouts = depth
	sc, err := synth.NewScene(cfg, rng.New(11))
	if err != nil {
		b.Fatal(err)
	}
	return sc.Observed
}

func benchIntegrate(b *testing.B, mode synth.ReadoutMode, depth int,
	integrate func(*Rejector, *dataset.Stack) (*dataset.Image, Stats)) {
	st := benchScene(b, mode, depth)
	r, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(st.Width() * st.Height() * depth * 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchImage, _ = integrate(r, st)
	}
}

func BenchmarkIntegrate(b *testing.B) {
	for _, depth := range []int{16, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchIntegrate(b, synth.Stationary, depth, (*Rejector).Integrate)
		})
	}
}

func BenchmarkIntegrateRamp(b *testing.B) {
	b.Run("depth=64", func(b *testing.B) {
		benchIntegrate(b, synth.Ramp, 64, (*Rejector).IntegrateRamp)
	})
}
