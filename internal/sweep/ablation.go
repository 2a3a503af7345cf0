package sweep

import (
	"math"

	"spaceproc/internal/core"
	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/metrics"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

// The ablation experiments justify the design choices recorded in
// DESIGN.md section 4: each one removes a single mechanism from Algorithm 1
// and measures the damage.

// ablationGammas is the fault-rate axis of the voting/threshold ablations.
var ablationGammas = []float64{0.0025, 0.01, 0.025, 0.05}

// AblationVoting compares the full algorithm against variants with the
// window-A quorum vote and/or the carry-propagation guard removed.
func AblationVoting(cfg NGSTConfig, seed uint64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	defer traceExperiment(cfg.Telemetry, "ablation_voting")()
	res := &Result{
		ID:     "ablation-voting",
		Title:  "voting mechanism ablation (Psi vs Gamma0)",
		XLabel: "Gamma0",
		YLabel: "average relative error Psi",
	}
	variants := []algoVariant{
		{"Full", core.NGSTConfig{Upsilon: 4, Sensitivity: 80}},
		{"NoQuorum", core.NGSTConfig{Upsilon: 4, Sensitivity: 80, DisableQuorum: true}},
		{"NoCarryGuard", core.NGSTConfig{Upsilon: 4, Sensitivity: 80, DisableCarryGuard: true}},
		{"NoGuards", core.NGSTConfig{Upsilon: 4, Sensitivity: 80, DisableQuorum: true, DisableCarryGuard: true}},
	}
	return res, runSeriesVariants(res, cfg, seed, variants)
}

// AblationThresholds compares the dynamic data-derived bit windows with
// static windows and with the literal (sign-uncorrected) Phi formula.
func AblationThresholds(cfg NGSTConfig, seed uint64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	defer traceExperiment(cfg.Telemetry, "ablation_thresholds")()
	res := &Result{
		ID:     "ablation-thresholds",
		Title:  "threshold ablation on mixed-sigma data: dynamic vs static windows vs literal Phi",
		XLabel: "Gamma0",
		YLabel: "average relative error Psi",
	}
	variants := []algoVariant{
		{"Dynamic", core.NGSTConfig{Upsilon: 4, Sensitivity: 80}},
		// Static boundaries can be tuned for one sigma, but the datasets
		// here mix sigma over [10, 1000] per trial — Section 3.3's claim
		// is exactly that fixed parameters cannot follow the data.
		{"Static(C<9,A>=12)", core.NGSTConfig{Upsilon: 4, Sensitivity: 80, StaticWindows: true, StaticLSB: 9, StaticMSB: 12}},
		{"Static(C<6,A>=14)", core.NGSTConfig{Upsilon: 4, Sensitivity: 80, StaticWindows: true, StaticLSB: 6, StaticMSB: 14}},
		{"LiteralPhi", core.NGSTConfig{Upsilon: 4, Sensitivity: 80, LiteralPhi: true}},
	}

	for _, v := range variants {
		a, err := core.NewAlgoNGST(v.cfg)
		if err != nil {
			return nil, err
		}
		a.Instrument(cfg.Telemetry)
		s := Series{Name: v.name}
		for _, g := range ablationGammas {
			s.Points = append(s.Points, Point{X: g, Y: mixedSigmaError(cfg, a, seed, g)})
		}
		res.Series = append(res.Series, s)
	}
	raw := Series{Name: "NoPreprocessing"}
	for _, g := range ablationGammas {
		raw.Points = append(raw.Points, Point{X: g, Y: mixedSigmaError(cfg, nil, seed, g)})
	}
	res.Series = append(res.Series, raw)
	return res, nil
}

// mixedSigmaError is seriesPreprocessorError over datasets whose sigma is
// drawn log-uniformly from [10, 1000] per trial.
func mixedSigmaError(cfg NGSTConfig, pre core.SeriesPreprocessor, seed uint64, gamma0 float64) float64 {
	injector := fault.Uncorrelated{Gamma0: gamma0}
	var acc metrics.Accumulator
	for trial := 0; trial < cfg.Trials; trial++ {
		sigSrc := rng.NewStream(seed, uint64(trial)*3)
		dataSrc := rng.NewStream(seed, uint64(trial)*3+1)
		faultSrc := rng.NewStream(seed, uint64(trial)*3+2)
		sigma := math.Pow(10, 1+2*sigSrc.Float64())
		ideal, err := synth.GaussianSeries(synth.SeriesConfig{N: cfg.N, Initial: cfg.Initial, Sigma: sigma}, dataSrc)
		if err != nil {
			panic(err)
		}
		damaged := ideal.Clone()
		injector.InjectSeries(damaged, faultSrc)
		if pre != nil {
			pre.ProcessSeries(damaged, nil, nil)
		}
		acc.Add(metrics.SeriesError(damaged, ideal))
	}
	return acc.Mean()
}

// algoVariant names one configured Algorithm 1 variant.
type algoVariant struct {
	name string
	cfg  core.NGSTConfig
}

// runSeriesVariants fills res with one series per algorithm variant over
// the ablation fault-rate axis, plus the no-preprocessing reference.
func runSeriesVariants(res *Result, cfg NGSTConfig, seed uint64, variants []algoVariant) error {
	for _, v := range variants {
		a, err := core.NewAlgoNGST(v.cfg)
		if err != nil {
			return err
		}
		a.Instrument(cfg.Telemetry)
		s := Series{Name: v.name}
		for _, g := range ablationGammas {
			injector := fault.Uncorrelated{Gamma0: g}
			psi := seriesPreprocessorError(cfg, a, seed, func(ser dataset.Series, src *rng.Source) {
				injector.InjectSeries(ser, src)
			})
			s.Points = append(s.Points, Point{X: g, Y: psi})
		}
		res.Series = append(res.Series, s)
	}
	raw := Series{Name: "NoPreprocessing"}
	for _, g := range ablationGammas {
		injector := fault.Uncorrelated{Gamma0: g}
		psi := seriesPreprocessorError(cfg, nil, seed, func(ser dataset.Series, src *rng.Source) {
			injector.InjectSeries(ser, src)
		})
		raw.Points = append(raw.Points, Point{X: g, Y: psi})
	}
	res.Series = append(res.Series, raw)
	return nil
}

// AblationLayout reproduces the Section 8 recommendation as an experiment:
// under contiguous block (burst) faults, a series-major memory layout
// loses whole temporal series at once, while an interleaved (frame-major)
// layout spreads the damage across coordinates so each series stays
// repairable. Psi is measured after preprocessing, as a function of the
// burst length.
func AblationLayout(cfg NGSTConfig, seed uint64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	defer traceExperiment(cfg.Telemetry, "ablation_layout")()
	res := &Result{
		ID:     "ablation-layout",
		Title:  "Section 8 memory layout under burst faults (Psi after preprocessing)",
		XLabel: "burst length (words)",
		YLabel: "average relative error Psi",
	}
	const coords = 256 // 16x16 coordinates
	bursts := []int{64, 256, 1024, 4096}

	a, err := core.NewAlgoNGST(core.NGSTConfig{Upsilon: 4, Sensitivity: 80})
	if err != nil {
		return nil, err
	}
	a.Instrument(cfg.Telemetry)

	for _, layout := range []string{"SeriesMajor", "FrameMajor"} {
		s := Series{Name: layout}
		for _, burstLen := range bursts {
			var acc metrics.Accumulator
			for trial := 0; trial < cfg.Trials; trial++ {
				dataSrc := rng.NewStream(seed, uint64(trial)*4)
				faultSrc := rng.NewStream(seed, uint64(trial)*4+1)
				posSrc := rng.NewStream(seed, uint64(trial)*4+2)

				ideal := make([]dataset.Series, coords)
				for c := range ideal {
					ser, err := synth.GaussianSeries(synth.SeriesConfig{
						N: cfg.N, Initial: cfg.Initial, Sigma: cfg.Sigma,
					}, dataSrc)
					if err != nil {
						return nil, err
					}
					ideal[c] = ser
				}

				// Lay the series out in memory, burst-damage the buffer,
				// and read them back.
				buf := make([]uint16, coords*cfg.N)
				place := func(c, i int) int {
					if layout == "SeriesMajor" {
						return c*cfg.N + i
					}
					return i*coords + c // frame-major: readout i of all coordinates together
				}
				for c, ser := range ideal {
					for i, v := range ser {
						buf[place(c, i)] = v
					}
				}
				b := fault.Burst{
					Offset:  posSrc.Intn(len(buf)),
					Length:  burstLen,
					Density: 0.5,
				}
				b.InjectWords16(buf, faultSrc)

				var psi metrics.Accumulator
				for c := range ideal {
					got := make(dataset.Series, cfg.N)
					for i := range got {
						got[i] = buf[place(c, i)]
					}
					a.ProcessSeries(got, nil, nil)
					psi.Add(metrics.SeriesError(got, ideal[c]))
				}
				acc.Add(psi.Mean())
			}
			s.Points = append(s.Points, Point{X: float64(burstLen), Y: acc.Mean()})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// AblationLocality compares spatial against spectral voting for Algo_OTIS,
// reproducing the Section 7.1 finding that spatial locality "yields better
// expediency ... as spectral correlation falls drastically on either side
// of a band of wavelengths". The effect requires scenes whose emissivity
// varies across bands (real materials), which the synthesizer models with
// a non-flat emissivity spectrum.
func AblationLocality(cfg OTISSweepConfig, seed uint64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	defer traceExperiment(cfg.Telemetry, "ablation_locality")()
	res := &Result{
		ID:     "ablation-locality",
		Title:  "Algo_OTIS spatial vs spectral voting (Psi vs Gamma0)",
		XLabel: "Gamma0",
		YLabel: "average relative error Psi",
	}
	sceneCfg := cfg.Scene
	sceneCfg.Kind = synth.Blob
	sceneCfg.Spectrum = synth.QuartzLikeSpectrum(sceneCfg.Bands)

	for _, mode := range []core.OTISLocality{core.SpatialLocality, core.SpectralLocality} {
		s := Series{Name: mode.String()}
		for _, g := range ablationGammas {
			injector := fault.Uncorrelated{Gamma0: g}
			var acc metrics.Accumulator
			for trial := 0; trial < cfg.Trials; trial++ {
				sc, err := synth.NewOTISScene(sceneCfg, rng.NewStream(seed, uint64(trial)*2))
				if err != nil {
					return nil, err
				}
				damaged := sc.Cube.Clone()
				injector.InjectCube(damaged, rng.NewStream(seed, uint64(trial)*2+1))
				ocfg := core.DefaultOTISConfig(sc.Wavelengths)
				ocfg.Locality = mode
				a, err := core.NewAlgoOTIS(ocfg)
				if err != nil {
					return nil, err
				}
				a.Instrument(cfg.Telemetry)
				a.ProcessCube(damaged)
				acc.Add(metrics.CubeError(damaged, sc.Cube))
			}
			s.Points = append(s.Points, Point{X: g, Y: acc.Mean()})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
