// Command ngstsim runs the Figure 1 NGST pipeline end to end: it
// synthesizes a baseline (star field + cosmic rays), optionally injects
// memory bit flips into the raw readouts, runs the master/worker
// CR-rejection pipeline with or without input preprocessing, and reports
// the relative error against the fault-free pipeline output, the rejection
// statistics, and the downlink compression ratio.
//
// With -tcp each worker runs as a serve daemon over loopback TCP (the
// Myrinet stand-in) and the pool dispatches tiles to it through a serve
// client, instead of running the workers in process.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"spaceproc"
	"spaceproc/internal/cmdutil"
)

func main() {
	ctx, stop := cmdutil.SignalContext()
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		spaceproc.NewStructuredLogger(os.Stderr, slog.LevelInfo).
			Error("run failed", "cmd", "ngstsim", "err", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ngstsim", flag.ContinueOnError)
	width := fs.Int("width", 256, "frame width (multiple of tile)")
	height := fs.Int("height", 256, "frame height (multiple of tile)")
	readouts := fs.Int("readouts", spaceproc.BaselineReadouts, "readouts per baseline")
	tile := fs.Int("tile", spaceproc.TileSize, "fragment edge length")
	workers := fs.Int("workers", spaceproc.DefaultWorkers, "worker count")
	gamma0 := fs.Float64("gamma0", 0.01, "memory bit-flip probability")
	faultModel := fs.String("fault", "uncorrelated", "fault model: uncorrelated | campaign | burst | column (campaign models enumerate sites through the Feistel permutation)")
	sites := fs.Uint64("sites", 0, "campaign anchor-site budget (0 = gamma0 x domain bits)")
	burstLen := fs.Int("burst-len", 8, "burst run length in bits for -fault burst")
	lambda := fs.Int("sensitivity", 80, "preprocessing sensitivity Lambda (0 disables the pixel pass)")
	upsilon := fs.Int("upsilon", 4, "neighbors consulted per pixel")
	noPre := fs.Bool("no-preprocess", false, "disable input preprocessing")
	tcp := fs.Bool("tcp", false, "serve workers over loopback TCP as serve daemons")
	seed := fs.Uint64("seed", 1, "simulation seed")
	showMetrics := fs.Bool("metrics", false, "print the pipeline telemetry snapshot after the run")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON artifact to this file")
	forensics := fs.Bool("forensics", false, "log a WARN record per corrected series (chatty at high fault rates)")
	version := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		cmdutil.PrintVersion(out, "ngstsim")
		return nil
	}

	logger := spaceproc.NewStructuredLogger(os.Stderr, slog.LevelWarn)

	var reg *spaceproc.TelemetryRegistry
	if *showMetrics || *traceOut != "" {
		reg = spaceproc.NewTelemetryRegistry()
	}

	cfg := spaceproc.DefaultSceneConfig()
	cfg.Width, cfg.Height, cfg.Readouts = *width, *height, *readouts
	fmt.Fprintf(out, "synthesizing %dx%d baseline, %d readouts, %.0f%% CR rate...\n",
		cfg.Width, cfg.Height, cfg.Readouts, cfg.CRRate*100)
	scene, err := spaceproc.NewScene(cfg, spaceproc.NewRNG(*seed))
	if err != nil {
		return err
	}

	var pre spaceproc.SeriesPreprocessor
	if !*noPre {
		a, err := spaceproc.NewAlgoNGST(spaceproc.NGSTConfig{Upsilon: *upsilon, Sensitivity: *lambda})
		if err != nil {
			return err
		}
		a.Instrument(reg)
		if *forensics {
			a.Forensics(logger)
		}
		pre = a
		fmt.Fprintf(out, "preprocessing: %s\n", a.Name())
	} else {
		fmt.Fprintln(out, "preprocessing: disabled")
	}

	// nodeRegs holds the flight pool's TCP nodes' registries: each node
	// traces into its own, like a separate slave process would, and the
	// -trace artifact gathers them afterwards.
	var nodeRegs []*spaceproc.TelemetryRegistry

	// buildPool assembles a worker pool; instrument wires the flight
	// pool's logging and telemetry (the reference pool stays dark so
	// pipeline_* metrics count only the measured path). The returned
	// cleanup closes the pool before its TCP endpoints.
	buildPool := func(p spaceproc.SeriesPreprocessor, instrument bool) (*spaceproc.WorkerPool, func(), error) {
		popts := []spaceproc.WorkerPoolOption{spaceproc.WithPoolTileSize(*tile)}
		if instrument {
			popts = append(popts, spaceproc.WithPoolLogger(logger))
			if reg != nil {
				popts = append(popts, spaceproc.WithPoolTelemetry(reg))
			}
		}
		pool, err := spaceproc.NewWorkerPool(popts...)
		if err != nil {
			return nil, nil, err
		}
		cleanups := []func(){pool.Close}
		cleanup := func() {
			for _, c := range cleanups {
				c()
			}
		}
		for i := 0; i < *workers; i++ {
			lw, err := spaceproc.NewLocalWorker(p, spaceproc.DefaultCRConfig())
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			if !*tcp {
				pool.AddWorker(lw)
				continue
			}
			// One tile per connection is in flight, so the node has
			// nothing to batch.
			nodeOpts := []spaceproc.ServeOption{
				spaceproc.WithServeBatching(1, 0), spaceproc.WithServeLogger(logger)}
			var nodeReg *spaceproc.TelemetryRegistry
			if instrument && reg != nil {
				nodeReg = spaceproc.NewTelemetryRegistry()
				nodeOpts = append(nodeOpts, spaceproc.WithServeTelemetry(nodeReg))
			}
			node, err := spaceproc.NewDaemon(spaceproc.WorkerBackend(lw), nodeOpts...)
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			addr, err := node.Listen("127.0.0.1:0")
			if err != nil {
				node.Close()
				cleanup()
				return nil, nil, err
			}
			if nodeReg != nil {
				nodeReg.Tracer().SetProc("worker " + addr)
				nodeRegs = append(nodeRegs, nodeReg)
			}
			client, err := spaceproc.Dial(addr)
			if err != nil {
				node.Close()
				cleanup()
				return nil, nil, err
			}
			pool.AddWorker(client)
			cleanups = append(cleanups, func() { client.Close(); node.Close() })
		}
		return pool, cleanup, nil
	}

	// Reference: fault-free raw data through the plain pipeline. The
	// submission runs in the background while the faulty run is prepared
	// and submitted — the two baselines are in flight concurrently.
	refPool, cleanupRef, err := buildPool(nil, false)
	if err != nil {
		return err
	}
	defer cleanupRef()
	refCh := refPool.Submit(ctx, scene.Observed)

	// Faulty run: bit flips in the raw readouts while in memory.
	faulty := scene.Observed.Clone()
	switch *faultModel {
	case "uncorrelated":
		flips := spaceproc.Uncorrelated{Gamma0: *gamma0}.InjectStack(faulty, spaceproc.NewRNGStream(*seed, 99))
		fmt.Fprintf(out, "injected %d bit flips at Gamma0 = %.4f\n", flips, *gamma0)
	case "campaign", "burst", "column":
		var model spaceproc.CampaignModel = spaceproc.SingleBit{}
		switch *faultModel {
		case "burst":
			model = spaceproc.BurstRun{Length: *burstLen}
		case "column":
			model = spaceproc.ColumnWipe{}
		}
		c := spaceproc.FaultCampaign{Count: *sites, Rate: *gamma0, Seed: *seed, Model: model}
		flips, err := c.InjectStack(faulty)
		if err != nil {
			return err
		}
		geom := spaceproc.StackCampaignGeometry(faulty)
		fmt.Fprintf(out, "campaign %s: %d anchor sites over %d bit sites, %d bit toggles (seed %d)\n",
			model.Name(), c.Budget(geom.Bits), geom.Bits, flips, *seed)
	default:
		return fmt.Errorf("unknown -fault model %q (want uncorrelated, campaign, burst or column)", *faultModel)
	}

	mainPool, cleanupMain, err := buildPool(pre, true)
	if err != nil {
		return err
	}
	defer cleanupMain()
	res := <-mainPool.Submit(ctx, faulty)
	if res.Err != nil {
		return res.Err
	}
	ideal := <-refCh
	if ideal.Err != nil {
		return ideal.Err
	}

	psi := relErr(res.Image.Pix, ideal.Image.Pix)
	fmt.Fprintf(out, "cosmic rays: %d pixels hit, %d steps removed\n", res.Stats.Hits, res.Stats.Steps)
	if ps := res.PreStats; ps.Series > 0 {
		fmt.Fprintf(out, "preprocessing telemetry: %d pixels corrected (%d window-A bits, %d window-B bits), %d guard rejections\n",
			ps.Corrected, ps.BitsWindowA, ps.BitsWindowB, ps.GuardRejected)
	}
	fmt.Fprintf(out, "downlink: %d bytes (ratio %.2f:1)\n", len(res.Compressed), res.CompressionRatio())
	fmt.Fprintf(out, "relative error vs fault-free pipeline: %.6f\n", psi)
	if *showMetrics && reg != nil {
		fmt.Fprintln(out)
		fmt.Fprint(out, reg.Snapshot().Render())
	}
	if *traceOut != "" {
		// One artifact: the nodes' serve spans already carry the run's
		// trace ID and their own proc, so they join the master's as is.
		for _, nr := range nodeRegs {
			for _, ev := range nr.Tracer().Events() {
				reg.Tracer().Record(ev)
			}
		}
		if err := reg.Tracer().WriteTraceFile(*traceOut); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(out, "trace: %d events written to %s\n", len(reg.Tracer().Events()), *traceOut)
	}
	return nil
}

func relErr(got, want []uint16) float64 {
	var sum float64
	var n int
	for i := range want {
		if want[i] == 0 {
			continue
		}
		d := float64(got[i]) - float64(want[i])
		if d < 0 {
			d = -d
		}
		sum += d / float64(want[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
