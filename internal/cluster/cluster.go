// Package cluster implements the paper's Figure 1 system architecture: the
// onboard CR-rejection pipeline estimated by STScI as a 16-processor
// COTS workstation. A master fragments each 1024x1024 baseline into 128x128
// pixel segments, hands them to slave workers for preprocessing and
// cosmic-ray rejection, reintegrates the processed fragments, and
// Rice-compresses the result for downlink.
//
// Workers run in process (LocalWorker, AdaptiveWorker). The TCP
// interconnect standing in for Myrinet lives in internal/serve: a slave
// node is a serve.Server over serve.WorkerBackend, and the master holds a
// *serve.Client per node, which is itself a Worker. The master role is
// the long-lived Pool (see pool.go):
// workers join and leave at runtime, a circuit breaker quarantines nodes
// that keep failing, and a bounded shared queue pipelines many baselines
// concurrently.
//
// The pipeline is observable: pass WithPoolTelemetry to NewPool and it
// records per-tile dispatch/process/retry/blit spans, per-worker latency
// histograms keyed by stable worker ID, scheduler health gauges and stage
// counters into the registry (see internal/telemetry). Without a registry
// the instrumentation compiles down to nil checks on the hot path.
package cluster

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"spaceproc/internal/core"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
)

// DefaultWorkers is the paper's 16-processor estimate.
const DefaultWorkers = 16

// TileResult is a worker's output for one tile.
type TileResult struct {
	// Index and X0/Y0 locate the tile in the parent frame.
	Index  int
	X0, Y0 int
	// Image is the integrated (CR-rejected) tile.
	Image *dataset.Image
	// Stats carries the tile's rejection statistics.
	Stats crreject.Stats
	// PreStats carries the preprocessing telemetry when the worker's
	// preprocessor supports collection (AlgoNGST does).
	PreStats core.VoteStats
}

// Worker processes one tile.
type Worker interface {
	// ProcessTile preprocesses and integrates a tile. Implementations
	// honor ctx cancellation and deadlines: the in-process workers poll
	// ctx between pixel chunks, and the serve client propagates the
	// deadline to the remote node. An error caused by ctx must wrap
	// ctx.Err(), so the pool can tell an abandoned run from a faulty
	// worker.
	ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error)
}

// LocalWorker runs the slave-node computation in process: input
// preprocessing over every coordinate's temporal series, then cosmic-ray
// rejection and integration.
//
// The preprocessor's ProcessRange runs through pooled per-shard scratch
// buffers, so the steady-state path performs zero heap allocations and
// takes whatever layout the preprocessor picks for the stack depth (the
// plane-major kernel for AlgoNGST at qualifying depths); see WithShards
// for the intra-worker range parallelism the pooling enables.
type LocalWorker struct {
	pre    core.SeriesPreprocessor // nil disables preprocessing
	rej    *crreject.Rejector
	shards int
	// scratch pools *core.VoteScratch values: one is checked out per tile
	// (per shard, when sharded), so a worker reuses warm buffers across
	// every tile it processes while staying safe for concurrent callers.
	scratch sync.Pool
}

var _ Worker = (*LocalWorker)(nil)

// LocalWorkerOption configures a LocalWorker.
type LocalWorkerOption func(*LocalWorker)

// WithShards sets the worker's intra-tile parallelism: the tile's
// flattened pixel range is split across n goroutines on 64-pixel word
// boundaries (the plane-major gather granularity), each with its own
// scratch and stats collector. n is clamped to [1, GOMAXPROCS]; passing 0
// selects GOMAXPROCS (auto). The default of 1 preserves the classic
// one-goroutine-per-tile behavior, which is right when the master already
// runs one goroutine per worker across many workers; shards help when a
// deployment runs few workers on many cores and single-tile latency
// matters.
func WithShards(n int) LocalWorkerOption {
	return func(w *LocalWorker) { w.shards = n }
}

// NewLocalWorker builds a worker. pre may be nil to skip preprocessing (the
// no-preprocessing baseline).
func NewLocalWorker(pre core.SeriesPreprocessor, rejCfg crreject.Config, opts ...LocalWorkerOption) (*LocalWorker, error) {
	rej, err := crreject.New(rejCfg)
	if err != nil {
		return nil, err
	}
	w := &LocalWorker{pre: pre, rej: rej, shards: 1}
	w.scratch.New = func() any { return core.NewVoteScratch() }
	for _, o := range opts {
		o(w)
	}
	if max := runtime.GOMAXPROCS(0); w.shards <= 0 || w.shards > max {
		w.shards = max
	}
	return w, nil
}

// Shards reports the worker's resolved intra-tile parallelism.
func (w *LocalWorker) Shards() int { return w.shards }

// ProcessTile implements Worker. Cancellation is polled between chunks of
// rangeChunk pixels, so an abandoned tile stops within one chunk's work.
func (w *LocalWorker) ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error) {
	if t.Stack == nil || t.Stack.Len() == 0 {
		return TileResult{}, errors.New("cluster: empty tile")
	}
	if err := ctx.Err(); err != nil {
		return TileResult{}, err
	}
	res := TileResult{Index: t.Index, X0: t.X0, Y0: t.Y0}
	if w.pre != nil {
		if err := w.processSharded(ctx, t.Stack, &res.PreStats); err != nil {
			return TileResult{}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return TileResult{}, err
	}
	res.Image, res.Stats = w.rej.Integrate(t.Stack)
	return res, nil
}

// processSharded runs the preprocessing pass over the stack, splitting
// the flattened pixel index space across the worker's shards on 64-pixel
// word boundaries, the gather granularity of the plane-major kernels — so
// bit-sliced words never straddle a shard seam and the sharded pass stays
// bit-identical to the sequential one. Each shard checks a warm scratch
// out of the pool and accumulates into its own VoteStats; the shard stats
// merge into agg in shard order when every shard is done. Series at
// distinct coordinates are independent and shards own disjoint pixel
// ranges, so no synchronization beyond the final join is needed.
func (w *LocalWorker) processSharded(ctx context.Context, s *dataset.Stack, agg *core.VoteStats) error {
	npix := s.Width() * s.Height()
	if npix == 0 {
		return nil
	}
	words := (npix + 63) / 64
	shards := w.shards
	if shards > words {
		shards = words
	}
	if shards <= 1 {
		sc := w.scratch.Get().(*core.VoteScratch)
		defer w.scratch.Put(sc)
		return processRange(ctx, w.pre, s, 0, npix, sc, agg)
	}
	wordsPer := (words + shards - 1) / shards
	errs := make([]error, shards)
	stats := make([]core.VoteStats, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		p0 := i * wordsPer * 64
		p1 := p0 + wordsPer*64
		if p1 > npix {
			p1 = npix
		}
		if p0 >= p1 {
			continue
		}
		wg.Add(1)
		go func(i, p0, p1 int) {
			defer wg.Done()
			sc := w.scratch.Get().(*core.VoteScratch)
			defer w.scratch.Put(sc)
			errs[i] = processRange(ctx, w.pre, s, p0, p1, sc, &stats[i])
		}(i, p0, p1)
	}
	wg.Wait()
	for i := range stats {
		agg.Add(stats[i])
	}
	return errors.Join(errs...)
}

// rangeChunk is the cancellation granularity inside a shard: processRange
// polls ctx between chunks of this many pixels, comparable to a handful
// of classic 128-wide row passes, so an abandoned tile still stops
// promptly without a ctx check on every pixel.
const rangeChunk = 4096

// processRange repairs the flattened coordinate range [p0, p1) of s with
// pre.ProcessRange, one rangeChunk at a time between ctx polls. Every
// chunk writes only pixels inside the range, so disjoint ranges run
// concurrently.
func processRange(ctx context.Context, pre core.SeriesPreprocessor, s *dataset.Stack, p0, p1 int, sc *core.VoteScratch, stats *core.VoteStats) error {
	for q0 := p0; q0 < p1; q0 += rangeChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		pre.ProcessRange(s, q0, min(q0+rangeChunk, p1), sc, stats)
	}
	return nil
}

// Result is the master's output for one baseline.
type Result struct {
	// Image is the reintegrated full-frame image.
	Image *dataset.Image
	// Compressed is the Rice-compressed downlink payload.
	Compressed []byte
	// Stats aggregates rejection statistics over all tiles.
	Stats crreject.Stats
	// PreStats aggregates preprocessing telemetry over all tiles.
	PreStats core.VoteStats
	// Retries counts tiles that had to be reassigned after a worker
	// failure (only charged failures; tiles drained off a quarantined
	// worker while healthy peers remained are not counted).
	Retries int
	// Err is set when the baseline failed (fragmentation error, joined
	// permanent tile failures, cancellation, or pool shutdown); the other
	// fields are zero. Pool.Submit delivers failed runs this way so one
	// channel carries both outcomes.
	Err error
}

// CompressionRatio returns input bytes over downlink bytes.
func (r *Result) CompressionRatio() float64 {
	if len(r.Compressed) == 0 {
		return 1
	}
	return float64(2*len(r.Image.Pix)) / float64(len(r.Compressed))
}

// Span stages recorded by the pipeline; tests and dashboards key on these.
const (
	StageFragment = "fragment"
	StageDispatch = "dispatch"
	StageProcess  = "process"
	StageRetry    = "retry"
	StageBlit     = "blit"
	StageCompress = "compress"
	StageRun      = "run"
)

// blit copies a tile image into the frame.
func blit(dst *dataset.Image, res TileResult) {
	for y := 0; y < res.Image.Height; y++ {
		dstOff := (res.Y0+y)*dst.Width + res.X0
		copy(dst.Pix[dstOff:dstOff+res.Image.Width], res.Image.Pix[y*res.Image.Width:(y+1)*res.Image.Width])
	}
}

// cloneTile deep-copies a tile so retried jobs never see a half-processed
// stack.
func cloneTile(t dataset.Tile) dataset.Tile {
	return dataset.Tile{Index: t.Index, X0: t.X0, Y0: t.Y0, Stack: t.Stack.Clone()}
}
