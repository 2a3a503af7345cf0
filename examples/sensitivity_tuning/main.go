// Sensitivity tuning example: the operating point of the preprocessing
// layer is the sensitivity Lambda. This example sweeps Lambda at several
// fault rates and prints the residual error, showing the paper's central
// tuning observation: past the optimum, extra sensitivity only adds false
// alarms — and the optimum moves right as the fault rate grows.
//
//	go run ./examples/sensitivity_tuning
package main

import (
	"fmt"
	"log"

	"spaceproc"
)

func main() {
	lambdas := []int{0, 20, 40, 60, 80, 100}
	gammas := []float64{0.0025, 0.01, 0.05}

	fmt.Printf("%8s", "Gamma0")
	for _, l := range lambdas {
		fmt.Printf("  L=%-8d", l)
	}
	fmt.Println()

	for _, g := range gammas {
		fmt.Printf("%8.4f", g)
		for _, l := range lambdas {
			fmt.Printf("  %.8f", residual(g, l))
		}
		fmt.Println()
	}
	fmt.Println("\n(each column: mean residual Psi after Algo_NGST at that sensitivity;")
	fmt.Println(" L=0 performs only the header sanity analysis, so it equals the raw error)")
}

// residual measures the mean post-preprocessing error at one operating
// point over 30 trials.
func residual(gamma0 float64, lambda int) float64 {
	pre, err := spaceproc.NewAlgoNGST(spaceproc.NGSTConfig{Upsilon: 4, Sensitivity: lambda})
	if err != nil {
		log.Fatal(err)
	}
	var sum float64
	const trials = 30
	for trial := uint64(0); trial < trials; trial++ {
		ideal, err := spaceproc.GaussianSeries(spaceproc.SeriesConfig{
			N: spaceproc.BaselineReadouts, Initial: 27000, Sigma: 250,
		}, spaceproc.NewRNGStream(100, trial))
		if err != nil {
			log.Fatal(err)
		}
		damaged := ideal.Clone()
		spaceproc.Uncorrelated{Gamma0: gamma0}.InjectSeries(damaged, spaceproc.NewRNGStream(200, trial))
		pre.ProcessSeries(damaged, nil, nil)
		sum += spaceproc.SeriesError(damaged, ideal)
	}
	return sum / trials
}
