package sweep

import (
	"spaceproc/internal/core"
	"spaceproc/internal/dataset"
	"spaceproc/internal/ecc"
	"spaceproc/internal/fault"
	"spaceproc/internal/metrics"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

// AblationECC compares the paper's software approach against SEC-DED
// memory ECC — the hardware redundancy the introduction calls "often
// prohibitively expensive" — and against the two combined. ECC words are
// 37.5% larger, so at equal per-bit upset rates each protected word
// exposes 22 bits instead of 16; single flips per word are corrected
// exactly, multi-flips survive. Preprocessing costs no storage and keeps
// working in the multi-flip regime, but cannot touch window C.
func AblationECC(cfg NGSTConfig, seed uint64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	defer traceExperiment(cfg.Telemetry, "ablation_ecc")()
	res := &Result{
		ID:     "ablation-ecc",
		Title:  "SEC-DED memory ECC vs input preprocessing (Psi vs Gamma0)",
		XLabel: "Gamma0",
		YLabel: "average relative error Psi",
	}
	pre, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		return nil, err
	}
	pre.Instrument(cfg.Telemetry)

	variants := []string{"NoProtection", "AlgoNGST", "SECDED(+37.5%mem)", "SECDED+AlgoNGST"}
	series := make([]Series, len(variants))
	for i, name := range variants {
		series[i] = Series{Name: name}
	}

	gammas := []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1}
	for _, g := range gammas {
		accs := make([]metrics.Accumulator, len(variants))
		for trial := 0; trial < cfg.Trials; trial++ {
			dataSrc := rng.NewStream(seed, uint64(trial)*2)
			faultSrc := rng.NewStream(seed, uint64(trial)*2+1)
			ideal, err := synth.GaussianSeries(synth.SeriesConfig{
				N: cfg.N, Initial: cfg.Initial, Sigma: cfg.Sigma,
			}, dataSrc)
			if err != nil {
				return nil, err
			}

			// Unprotected memory: flips hit the 16-bit words directly.
			plain := ideal.Clone()
			fault.Uncorrelated{Gamma0: g}.InjectSeries(plain, faultSrc.Split())
			accs[0].Add(metrics.SeriesError(plain, ideal))

			processed := plain.Clone()
			pre.ProcessSeries(processed, nil, nil)
			accs[1].Add(metrics.SeriesError(processed, ideal))

			// Protected memory: flips hit the 22-bit codewords.
			cws := ecc.EncodeWords(ideal)
			injectCodewords(cws, g, faultSrc.Split())
			decoded, _ := ecc.DecodeWords(cws)
			accs[2].Add(metrics.SeriesError(dataset.Series(decoded), ideal))

			both := dataset.Series(decoded).Clone()
			pre.ProcessSeries(both, nil, nil)
			accs[3].Add(metrics.SeriesError(both, ideal))
		}
		for i := range variants {
			series[i].Points = append(series[i].Points, Point{X: g, Y: accs[i].Mean()})
		}
	}
	res.Series = series
	return res, nil
}

// injectCodewords flips each of the low ecc.CodewordBits bits of every
// codeword independently with probability p.
func injectCodewords(cws []uint32, p float64, src *rng.Source) {
	for i := range cws {
		for b := 0; b < ecc.CodewordBits; b++ {
			if src.Bernoulli(p) {
				cws[i] ^= 1 << uint(b)
			}
		}
	}
}
