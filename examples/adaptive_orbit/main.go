// Adaptive orbit example: the paper motivates the sensitivity parameter as
// the knob that scales preprocessing to "the susceptibility to faults"
// (Section 3.2). This example calibrates the optimal Lambda per fault
// rate, then flies one orbit through quiet space and a South Atlantic
// Anomaly pass, comparing a fixed operating point against the adaptive
// controller.
//
//	go run ./examples/adaptive_orbit
package main

import (
	"fmt"
	"log"

	"spaceproc"
)

func main() {
	// Calibrate once on the ground: which Lambda is optimal at each rate?
	calCfg := spaceproc.DefaultCalibrationConfig()
	cal, err := spaceproc.Calibrate(calCfg, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("calibration (Gamma0 -> optimal Lambda):")
	for i, r := range cal.Rates {
		fmt.Printf("  %7.4f -> %d\n", r, cal.Lambdas[i])
	}

	orbit := spaceproc.DefaultOrbit()
	ctrl := &spaceproc.SensitivityController{Orbit: orbit, Calibration: cal}

	fmt.Printf("\n%6s  %8s  %4s  %12s  %12s\n", "phase", "Gamma0", "L", "fixed L=80", "adaptive")
	for _, phase := range []float64{0, 0.15, 0.3, 0.35, 0.4, 0.55, 0.75, 0.9} {
		rate := orbit.RateAt(phase)
		lambda := ctrl.SensitivityAt(phase)
		fixed := residual(rate, 80, phase)
		adaptive := residual(rate, lambda, phase)
		fmt.Printf("%6.2f  %8.5f  %4d  %12.6f  %12.6f\n", phase, rate, lambda, fixed, adaptive)
	}
}

// residual measures the mean post-preprocessing error at one operating
// point over 20 baselines.
func residual(gamma0 float64, lambda int, phase float64) float64 {
	pre, err := spaceproc.NewAlgoNGST(spaceproc.NGSTConfig{Upsilon: 4, Sensitivity: lambda})
	if err != nil {
		log.Fatal(err)
	}
	var sum float64
	const trials = 20
	for trial := uint64(0); trial < trials; trial++ {
		stream := uint64(phase*1000)*100 + trial
		ideal, err := spaceproc.GaussianSeries(spaceproc.SeriesConfig{
			N: spaceproc.BaselineReadouts, Initial: 27000, Sigma: 250,
		}, spaceproc.NewRNGStream(300, stream))
		if err != nil {
			log.Fatal(err)
		}
		damaged := ideal.Clone()
		spaceproc.Uncorrelated{Gamma0: gamma0}.InjectSeries(damaged, spaceproc.NewRNGStream(400, stream))
		pre.ProcessSeries(damaged, nil, nil)
		sum += spaceproc.SeriesError(damaged, ideal)
	}
	return sum / trials
}
