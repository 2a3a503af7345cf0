// Command preflight is the generic file-level tool: it generates,
// damages, checks and repairs FITS files on disk, exercising the full
// inject -> sanity-check -> preprocess flow on real bytes.
//
// Subcommands:
//
//	preflight gen -out file.fits [-width N -height N -seed N]
//	preflight inject -in a.fits -out b.fits [-gamma0 P] [-header-only]
//	preflight check -in file.fits [-expect WxH] [-repair -out fixed.fits]
//	preflight clean -in a.fits -out b.fits [-sensitivity L]
//	preflight pipeline -in baselinedir -out image.fits [-workers N -tile N -sensitivity L]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"spaceproc"
	"spaceproc/internal/cmdutil"
)

func main() {
	ctx, stop := cmdutil.SignalContext()
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		spaceproc.NewStructuredLogger(os.Stderr, slog.LevelInfo).
			Error("run failed", "cmd", "preflight", "err", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: preflight <gen|inject|check|clean> [flags]")
	}
	switch args[0] {
	case "-version", "version":
		cmdutil.PrintVersion(out, "preflight")
		return nil
	case "gen":
		return genCmd(args[1:], out)
	case "inject":
		return injectCmd(args[1:], out)
	case "check":
		return checkCmd(args[1:], out)
	case "clean":
		return cleanCmd(args[1:], out)
	case "pipeline":
		return pipelineCmd(ctx, args[1:], out)
	case "sum":
		return sumCmd(args[1:], out)
	case "verify":
		return verifyCmd(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func sumCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sum", flag.ContinueOnError)
	in := fs.String("in", "", "input FITS path")
	out := fs.String("out", "", "output FITS path with DATASUM")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return errors.New("sum: -in and -out are required")
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	withSum, err := spaceproc.WithFITSDataSum(raw)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, withSum, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s with DATASUM\n", *out)
	return nil
}

func verifyCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	in := fs.String("in", "", "input FITS path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return errors.New("verify: -in is required")
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	ok, err := spaceproc.VerifyFITSDataSum(raw)
	if err != nil {
		return err
	}
	if !ok {
		fmt.Fprintf(w, "%s: DATASUM MISMATCH (data unit damaged)\n", *in)
		return errors.New("verify: checksum mismatch")
	}
	fmt.Fprintf(w, "%s: DATASUM ok\n", *in)
	return nil
}

func genCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	out := fs.String("out", "", "output FITS path")
	width := fs.Int("width", spaceproc.TileSize, "image width")
	height := fs.Int("height", spaceproc.TileSize, "image height")
	seed := fs.Uint64("seed", 1, "synthesis seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("gen: -out is required")
	}
	ser, err := spaceproc.GaussianStack(spaceproc.SeriesConfig{N: 1, Initial: 24000, Sigma: 0},
		*width, *height, 6000, spaceproc.NewRNG(*seed))
	if err != nil {
		return err
	}
	raw := spaceproc.EncodeFITSImage(ser.Frames[0])
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d bytes, %dx%d)\n", *out, len(raw), *width, *height)
	return nil
}

func injectCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("inject", flag.ContinueOnError)
	in := fs.String("in", "", "input FITS path")
	out := fs.String("out", "", "output FITS path")
	gamma0 := fs.Float64("gamma0", 0.0005, "bit-flip probability")
	headerOnly := fs.Bool("header-only", false, "damage only the first header block")
	seed := fs.Uint64("seed", 2, "injection seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return errors.New("inject: -in and -out are required")
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	region := raw
	if *headerOnly {
		if len(raw) < 2880 {
			return errors.New("inject: file shorter than one FITS block")
		}
		region = raw[:2880]
	}
	flips := spaceproc.Uncorrelated{Gamma0: *gamma0}.InjectBytes(region, spaceproc.NewRNG(*seed))
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "injected %d bit flips into %s -> %s\n", flips, *in, *out)
	return nil
}

func parseExpect(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "x")
	axes := make([]int, 0, len(parts))
	for _, p := range parts {
		var v int
		if _, err := fmt.Sscanf(p, "%d", &v); err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -expect %q", s)
		}
		axes = append(axes, v)
	}
	return axes, nil
}

func checkCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	in := fs.String("in", "", "input FITS path")
	expect := fs.String("expect", "", "expected geometry, e.g. 128x128")
	repair := fs.Bool("repair", false, "write the repaired file")
	out := fs.String("out", "", "output path for -repair")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return errors.New("check: -in is required")
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	axes, err := parseExpect(*expect)
	if err != nil {
		return err
	}
	var opts []spaceproc.FITSSanityOption
	if len(axes) > 0 {
		opts = append(opts, spaceproc.WithExpectedAxes(axes...))
	}
	rep, fixed := spaceproc.SanityCheckFITS(raw, opts...)
	fmt.Fprintf(w, "%s: %d issue(s), %d repaired, fatal=%v\n", *in, len(rep.Issues), rep.Repaired, rep.Fatal)
	for _, is := range rep.Issues {
		status := "flagged"
		if is.Repaired {
			status = "repaired"
		}
		fmt.Fprintf(w, "  card %3d: %-20s %s (%s)\n", is.Card, is.Kind, is.Detail, status)
	}
	if *repair {
		if *out == "" {
			return errors.New("check: -repair requires -out")
		}
		if err := os.WriteFile(*out, fixed, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote repaired file to %s\n", *out)
	}
	if rep.Fatal {
		return errors.New("header is not repairable")
	}
	return nil
}

// pipelineCmd runs a stored baseline through the worker pool: load the
// FITS stack under the sanity layer, preprocess + CR-reject + compress it
// over N pooled workers, and write the integrated image.
func pipelineCmd(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pipeline", flag.ContinueOnError)
	in := fs.String("in", "", "input baseline directory (one FITS frame per readout)")
	out := fs.String("out", "", "output FITS path for the integrated image")
	workers := fs.Int("workers", 4, "worker count")
	tile := fs.Int("tile", spaceproc.TileSize, "fragment edge length")
	lambda := fs.Int("sensitivity", 80, "preprocessing sensitivity Lambda (negative disables preprocessing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return errors.New("pipeline: -in and -out are required")
	}
	stack, loadRep, err := spaceproc.LoadBaseline(*in)
	if err != nil {
		return err
	}
	spaceproc.InterpolateLostFrames(stack, loadRep.Unrecoverable)
	fmt.Fprintf(w, "loaded %s: %d frames, %d header issue(s), %d repaired, %d frame(s) interpolated\n",
		*in, stack.Len(), loadRep.HeaderIssues, loadRep.HeaderRepairs, len(loadRep.Unrecoverable))

	var pre spaceproc.SeriesPreprocessor
	if *lambda >= 0 {
		a, err := spaceproc.NewAlgoNGST(spaceproc.NGSTConfig{Upsilon: 4, Sensitivity: *lambda})
		if err != nil {
			return err
		}
		pre = a
	}
	pool, err := spaceproc.NewWorkerPool(spaceproc.WithPoolTileSize(*tile))
	if err != nil {
		return err
	}
	defer pool.Close()
	for i := 0; i < *workers; i++ {
		lw, err := spaceproc.NewLocalWorker(pre, spaceproc.DefaultCRConfig())
		if err != nil {
			return err
		}
		pool.AddWorker(lw)
	}
	res := <-pool.Submit(ctx, stack)
	if res.Err != nil {
		return res.Err
	}
	if err := os.WriteFile(*out, spaceproc.EncodeFITSImage(res.Image), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "pipeline: %d cosmic-ray pixels hit, %d steps removed, %d pixels corrected\n",
		res.Stats.Hits, res.Stats.Steps, res.PreStats.Corrected)
	fmt.Fprintf(w, "wrote %s (%d bytes; downlink %d bytes, ratio %.2f:1)\n",
		*out, len(spaceproc.EncodeFITSImage(res.Image)), len(res.Compressed), res.CompressionRatio())
	return nil
}

func cleanCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("clean", flag.ContinueOnError)
	in := fs.String("in", "", "input FITS path")
	out := fs.String("out", "", "output FITS path")
	lambda := fs.Int("sensitivity", 80, "preprocessing sensitivity Lambda")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return errors.New("clean: -in and -out are required")
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	rep, fixed := spaceproc.SanityCheckFITS(raw)
	if rep.Fatal {
		return errors.New("clean: header is not repairable; run check first")
	}
	f, err := spaceproc.DecodeFITS(fixed)
	if err != nil {
		return err
	}
	im, err := f.Image()
	if err != nil {
		return err
	}
	// A single frame has no temporal redundancy; preprocess each row as a
	// spatial series (the OTIS-style adaptation for 2-D data).
	pre, err := spaceproc.NewAlgoNGST(spaceproc.NGSTConfig{Upsilon: 4, Sensitivity: *lambda})
	if err != nil {
		return err
	}
	for y := 0; y < im.Height; y++ {
		row := spaceproc.Series(im.Pix[y*im.Width : (y+1)*im.Width])
		pre.ProcessSeries(row, nil, nil)
	}
	if err := os.WriteFile(*out, spaceproc.EncodeFITSImage(im), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "cleaned %s -> %s (%d header repairs)\n", *in, *out, rep.Repaired)
	return nil
}
