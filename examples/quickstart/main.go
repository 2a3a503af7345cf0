// Quickstart: damage a temporal pixel series with memory bit flips and
// repair it with the paper's dynamic preprocessing algorithm.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"spaceproc"
)

func main() {
	// An NGST baseline reads each detector coordinate 64 times; the
	// Gaussian temporal model of the paper (eq. 1) generates one such
	// series.
	ideal, err := spaceproc.GaussianSeries(spaceproc.SeriesConfig{
		N:       spaceproc.BaselineReadouts,
		Initial: 27000,
		Sigma:   250,
	}, spaceproc.NewRNG(42))
	if err != nil {
		log.Fatal(err)
	}

	// While the raw data sits in memory, radiation flips bits: each bit
	// flips independently with probability Gamma0 (the uncorrelated
	// fault model of Section 2.2.2).
	damaged := ideal.Clone()
	flips := spaceproc.Uncorrelated{Gamma0: 0.01}.InjectSeries(damaged, spaceproc.NewRNGStream(42, 1))
	before := spaceproc.SeriesError(damaged, ideal)
	fmt.Printf("injected %d bit flips; relative error Psi = %.5f\n", flips, before)

	// Algo_NGST (Algorithm 1) identifies temporally non-conforming bits
	// by XOR voting against each pixel's Upsilon nearest readouts, with
	// thresholds derived dynamically from the dataset itself.
	pre, err := spaceproc.NewAlgoNGST(spaceproc.DefaultNGSTConfig())
	if err != nil {
		log.Fatal(err)
	}
	pre.ProcessSeries(damaged, nil, nil)

	after := spaceproc.SeriesError(damaged, ideal)
	fmt.Printf("after %s: Psi = %.5f (gain %.1fx)\n", pre.Name(), after, spaceproc.Gain(before, after))
}
