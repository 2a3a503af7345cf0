package spaceproc_test

import (
	"bytes"
	"fmt"

	"spaceproc"
)

// ExampleAlgoNGST demonstrates the core repair loop on a single temporal
// series: inject uncorrelated bit flips, preprocess, measure the residual.
func ExampleAlgoNGST() {
	ideal, err := spaceproc.GaussianSeries(spaceproc.SeriesConfig{
		N: spaceproc.BaselineReadouts, Initial: 27000, Sigma: 0,
	}, spaceproc.NewRNG(1))
	if err != nil {
		panic(err)
	}
	damaged := ideal.Clone()
	damaged[20] ^= 1 << 14 // one high-bit flip

	pre, err := spaceproc.NewAlgoNGST(spaceproc.DefaultNGSTConfig())
	if err != nil {
		panic(err)
	}
	pre.ProcessSeries(damaged, nil, nil)
	fmt.Printf("repaired: %v\n", damaged[20] == ideal[20])
	// Output:
	// repaired: true
}

// ExampleUncorrelated shows the Section 2.2.2 fault model's statistics.
func ExampleUncorrelated() {
	words := make([]uint16, 10000)
	flips := spaceproc.Uncorrelated{Gamma0: 0.01}.InjectWords16(words, spaceproc.NewRNG(2))
	// ~1% of 160000 bits.
	fmt.Printf("flips within expectation: %v\n", flips > 1400 && flips < 1800)
	// Output:
	// flips within expectation: true
}

// ExampleCorrelated shows eq. 2's run-length escalation.
func ExampleCorrelated() {
	m := spaceproc.Correlated{GammaIni: 0.3}
	fmt.Printf("fresh bit: %.2f\n", m.FlipProb(0))
	fmt.Printf("long run limit: %.3f\n", m.FlipProb(1000))
	// Output:
	// fresh bit: 0.30
	// long run limit: 0.429
}

// ExampleRiceEncode round-trips a smooth series through the downlink
// coder.
func ExampleRiceEncode() {
	samples := []uint16{27000, 27003, 26999, 27001, 27000, 27002}
	enc := spaceproc.RiceEncode(samples)
	dec, err := spaceproc.RiceDecode(enc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("round trip ok: %v\n", len(dec) == len(samples) && dec[0] == samples[0])
	// Output:
	// round trip ok: true
}

// ExampleSanityCheckFITS repairs a damaged FITS header using the
// application's expected geometry.
func ExampleSanityCheckFITS() {
	im := spaceproc.NewImage(16, 16)
	raw := spaceproc.EncodeFITSImage(im)
	idx := bytes.Index(raw, []byte("NAXIS1"))
	raw[idx] ^= 0x02 // one bit flip in a mandatory keyword

	_, undecodable := spaceproc.DecodeFITS(raw)
	rep, fixed := spaceproc.SanityCheckFITS(raw, spaceproc.WithExpectedAxes(16, 16))
	_, err := spaceproc.DecodeFITS(fixed)
	fmt.Printf("damaged decodable=%v\n", undecodable == nil)
	fmt.Printf("repaired=%d fatal=%v decodable=%v\n", rep.Repaired, rep.Fatal, err == nil)
	// Output:
	// damaged decodable=false
	// repaired=1 fatal=false decodable=true
}
