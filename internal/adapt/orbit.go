// Package adapt implements the sensitivity-scaling layer the paper
// motivates in Section 3.2: "a good fault tolerance scheme needs to be
// scalable depending on the susceptibility to faults and the trade-off
// with overhead". It provides an orbital radiation-environment model (the
// South Atlantic Anomaly passes the paper cites for OTIS in Section 7), a
// calibration procedure that learns the optimal Lambda per fault rate, and
// a controller that picks the operating sensitivity from the environment's
// current rate estimate.
package adapt

import (
	"fmt"
	"math"

	"spaceproc/internal/core"
	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/metrics"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

// Orbit models the per-bit upset rate seen around one orbit. The rate is a
// quiet base plus a Gaussian bump centered on the South Atlantic Anomaly
// pass (phase is the orbit fraction in [0, 1), wrapped).
type Orbit struct {
	// BaseRate is the quiet-orbit per-bit flip probability per baseline.
	BaseRate float64
	// SAAPeak is the additional rate at the center of the SAA pass.
	SAAPeak float64
	// SAACenter is the orbit phase of the SAA pass center.
	SAACenter float64
	// SAAWidth is the Gaussian width of the pass, in orbit fraction.
	SAAWidth float64
}

// DefaultOrbit returns a low-Earth-orbit-like environment: quiet at
// Gamma0 = 0.1% with SAA passes peaking near 5%.
func DefaultOrbit() Orbit {
	return Orbit{BaseRate: 0.001, SAAPeak: 0.05, SAACenter: 0.35, SAAWidth: 0.06}
}

// Validate reports whether the model is usable.
func (o Orbit) Validate() error {
	switch {
	case o.BaseRate < 0 || o.BaseRate > 1:
		return fmt.Errorf("adapt: base rate %v outside [0,1]", o.BaseRate)
	case o.SAAPeak < 0 || o.BaseRate+o.SAAPeak > 1:
		return fmt.Errorf("adapt: peak rate %v pushes total outside [0,1]", o.SAAPeak)
	case o.SAAWidth <= 0:
		return fmt.Errorf("adapt: SAA width %v must be positive", o.SAAWidth)
	case o.SAACenter < 0 || o.SAACenter >= 1:
		return fmt.Errorf("adapt: SAA center %v outside [0,1)", o.SAACenter)
	}
	return nil
}

// RateAt returns the per-bit flip probability at orbit phase in [0, 1).
// The SAA bump wraps around the orbit.
func (o Orbit) RateAt(phase float64) float64 {
	phase -= math.Floor(phase)
	d := math.Abs(phase - o.SAACenter)
	if d > 0.5 {
		d = 1 - d
	}
	return o.BaseRate + o.SAAPeak*math.Exp(-(d*d)/(2*o.SAAWidth*o.SAAWidth))
}

// Calibration maps fault-rate grid points to their measured optimal
// sensitivity.
type Calibration struct {
	// Rates is the ascending Gamma0 grid.
	Rates []float64
	// Lambdas holds the best sensitivity found for each grid point.
	Lambdas []int
}

// CalibrationConfig parameterizes Calibrate.
type CalibrationConfig struct {
	// Trials is the number of datasets per (rate, lambda) cell.
	Trials int
	// Series is the dataset model to calibrate against.
	Series synth.SeriesConfig
	// Rates is the Gamma0 grid; defaults to a log-spaced ladder when nil.
	Rates []float64
	// Lambdas is the candidate grid; defaults to {20,40,60,80,100}.
	Lambdas []int
	// Upsilon is the neighbor count.
	Upsilon int
}

// DefaultCalibrationConfig returns a calibration against the paper's
// NGST-like data model.
func DefaultCalibrationConfig() CalibrationConfig {
	return CalibrationConfig{
		Trials: 20,
		Series: synth.SeriesConfig{N: dataset.BaselineReadouts, Initial: 27000, Sigma: 250},
		Rates:  []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1},
		Lambdas: []int{
			20, 40, 60, 80, 100,
		},
		Upsilon: 4,
	}
}

// Validate reports whether the configuration is usable.
func (c CalibrationConfig) Validate() error {
	if c.Trials <= 0 {
		return fmt.Errorf("adapt: trials must be positive, got %d", c.Trials)
	}
	if len(c.Rates) == 0 || len(c.Lambdas) == 0 {
		return fmt.Errorf("adapt: empty calibration grid")
	}
	for i := 1; i < len(c.Rates); i++ {
		if c.Rates[i] <= c.Rates[i-1] {
			return fmt.Errorf("adapt: rates must be ascending")
		}
	}
	return c.Series.Validate()
}

// Calibrate measures, for every rate on the grid, which candidate Lambda
// minimizes the post-preprocessing error, and returns the resulting table.
func Calibrate(cfg CalibrationConfig, seed uint64) (*Calibration, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cal := &Calibration{Rates: append([]float64(nil), cfg.Rates...)}
	for ri, rate := range cfg.Rates {
		bestLambda, bestPsi := 0, math.Inf(1)
		for _, lambda := range cfg.Lambdas {
			a, err := core.NewAlgoNGST(core.NGSTConfig{Upsilon: cfg.Upsilon, Sensitivity: lambda})
			if err != nil {
				return nil, err
			}
			var acc metrics.Accumulator
			injector := fault.Uncorrelated{Gamma0: rate}
			for trial := 0; trial < cfg.Trials; trial++ {
				// The same data/fault streams across lambda candidates
				// make the comparison paired (lower variance).
				dataSrc := rng.NewStream(seed, uint64(ri*cfg.Trials+trial)*2)
				faultSrc := rng.NewStream(seed, uint64(ri*cfg.Trials+trial)*2+1)
				ideal, err := synth.GaussianSeries(cfg.Series, dataSrc)
				if err != nil {
					return nil, err
				}
				damaged := ideal.Clone()
				injector.InjectSeries(damaged, faultSrc)
				a.ProcessSeries(damaged, nil, nil)
				acc.Add(metrics.SeriesError(damaged, ideal))
			}
			if acc.Mean() < bestPsi {
				bestPsi, bestLambda = acc.Mean(), lambda
			}
		}
		cal.Lambdas = append(cal.Lambdas, bestLambda)
	}
	return cal, nil
}

// Pick returns the calibrated sensitivity for an estimated fault rate,
// choosing the nearest grid point in log-rate space.
func (c *Calibration) Pick(rate float64) int {
	if len(c.Rates) == 0 {
		return 80 // the paper's default operating point
	}
	if rate <= 0 {
		return c.Lambdas[0]
	}
	bestIdx, bestDist := 0, math.Inf(1)
	lr := math.Log(rate)
	for i, r := range c.Rates {
		d := math.Abs(math.Log(r) - lr)
		if d < bestDist {
			bestIdx, bestDist = i, d
		}
	}
	return c.Lambdas[bestIdx]
}

// Controller couples an orbit model with a calibration to produce the
// operating sensitivity at any orbit phase.
type Controller struct {
	Orbit       Orbit
	Calibration *Calibration
}

// SensitivityAt returns the Lambda to run at the given orbit phase.
func (c *Controller) SensitivityAt(phase float64) int {
	return c.Calibration.Pick(c.Orbit.RateAt(phase))
}
