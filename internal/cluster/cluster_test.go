package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"spaceproc/internal/core"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/metrics"
	"spaceproc/internal/rice"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

// testScene builds a small multi-tile baseline with CR hits.
func testScene(t *testing.T, seed uint64) *synth.Scene {
	t.Helper()
	cfg := synth.DefaultSceneConfig()
	cfg.Width, cfg.Height = 64, 64
	sc, err := synth.NewScene(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func localWorkers(t *testing.T, n int, pre core.SeriesPreprocessor) []Worker {
	t.Helper()
	workers := make([]Worker, n)
	for i := range workers {
		w, err := NewLocalWorker(pre, crreject.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	return workers
}

// testPool admits workers into a fresh pool that closes with the test.
func testPool(t *testing.T, workers []Worker, opts ...PoolOption) *Pool {
	t.Helper()
	p, err := NewPool(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	for _, w := range workers {
		p.AddWorker(w)
	}
	return p
}

// submitWait submits one baseline to p and waits for its result.
func submitWait(ctx context.Context, p *Pool, s *dataset.Stack) (*Result, error) {
	res := <-p.Submit(ctx, s)
	if res.Err != nil {
		return nil, res.Err
	}
	return res, nil
}

// TestMasterRequiresWorkers checks the pool's construction guards, and
// that a baseline submitted while no worker has joined is failed when the
// pool closes rather than left waiting.
func TestMasterRequiresWorkers(t *testing.T) {
	if _, err := NewPool(WithPoolTileSize(0)); err == nil {
		t.Fatal("zero tile size should error")
	}
	if _, err := NewPool(WithPoolRetries(-1)); err == nil {
		t.Fatal("negative retry budget should error")
	}
	p := testPool(t, nil, WithPoolTileSize(32))
	out := p.Submit(context.Background(), testScene(t, 4).Observed)
	p.Close()
	if res := <-out; !errors.Is(res.Err, errPoolClosed) {
		t.Fatalf("err = %v, want errPoolClosed", res.Err)
	}
}

func TestPipelineMatchesSerialIntegration(t *testing.T) {
	sc := testScene(t, 1)
	m := testPool(t, localWorkers(t, 4, nil), WithPoolTileSize(32))
	got, err := submitWait(context.Background(), m, sc.Observed)
	if err != nil {
		t.Fatal(err)
	}

	rej, err := crreject.New(crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats := rej.Integrate(sc.Observed)
	for i := range want.Pix {
		if got.Image.Pix[i] != want.Pix[i] {
			t.Fatalf("pipeline image differs from serial integration at %d", i)
		}
	}
	if got.Stats != wantStats {
		t.Fatalf("stats %+v != serial %+v", got.Stats, wantStats)
	}
}

func TestPipelineCompressedPayloadDecodes(t *testing.T) {
	sc := testScene(t, 2)
	m := testPool(t, localWorkers(t, 3, nil), WithPoolTileSize(32))
	res, err := submitWait(context.Background(), m, sc.Observed)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := rice.Decode(res.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dec {
		if dec[i] != res.Image.Pix[i] {
			t.Fatalf("downlink payload corrupt at %d", i)
		}
	}
	if res.CompressionRatio() <= 1 {
		t.Fatalf("compression ratio %.2f, want > 1", res.CompressionRatio())
	}
}

func TestPipelineWithPreprocessingBeatsWithout(t *testing.T) {
	// End-to-end Figure 1 + preprocessing: with bit flips in the raw
	// readouts, the preprocessed pipeline's integrated image is closer to
	// the fault-free pipeline's output.
	sc := testScene(t, 3)
	faulty := sc.Observed.Clone()
	// (fault injection on the stack in memory, before processing)
	injectStack(t, faulty, 0.02, 4)

	mClean := testPool(t, localWorkers(t, 4, nil), WithPoolTileSize(32))
	idealRes, err := submitWait(context.Background(), mClean, sc.Observed)
	if err != nil {
		t.Fatal(err)
	}

	noPre, err := submitWait(context.Background(), mClean, faulty)
	if err != nil {
		t.Fatal(err)
	}

	pre, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	mPre := testPool(t, localWorkers(t, 4, pre), WithPoolTileSize(32))
	withPre, err := submitWait(context.Background(), mPre, faulty.Clone())
	if err != nil {
		t.Fatal(err)
	}

	psiNo := metrics.RelativeError16(noPre.Image.Pix, idealRes.Image.Pix)
	psiPre := metrics.RelativeError16(withPre.Image.Pix, idealRes.Image.Pix)
	if psiPre*2 > psiNo {
		t.Fatalf("preprocessing gained too little end-to-end: without %.5f, with %.5f", psiNo, psiPre)
	}
}

func injectStack(t *testing.T, s *dataset.Stack, gamma float64, seed uint64) {
	t.Helper()
	fault.Uncorrelated{Gamma0: gamma}.InjectStack(s, rng.New(seed))
}

// flakyWorker fails the first `failures` calls, then delegates.
type flakyWorker struct {
	inner    Worker
	failures int32
}

func (w *flakyWorker) ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error) {
	if atomic.AddInt32(&w.failures, -1) >= 0 {
		return TileResult{}, errors.New("injected worker failure")
	}
	return w.inner.ProcessTile(ctx, t)
}

func TestPipelineCollectsPreprocessingTelemetry(t *testing.T) {
	sc := testScene(t, 12)
	faulty := sc.Observed.Clone()
	injectStack(t, faulty, 0.01, 13)
	pre, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := testPool(t, localWorkers(t, 3, pre), WithPoolTileSize(32))
	res, err := submitWait(context.Background(), m, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if res.PreStats.Series != 64*64 {
		t.Fatalf("telemetry covered %d series, want %d", res.PreStats.Series, 64*64)
	}
	if res.PreStats.Corrected == 0 {
		t.Fatal("no corrections recorded at 1% damage")
	}
	// Without preprocessing there is no telemetry.
	m2 := testPool(t, localWorkers(t, 2, nil), WithPoolTileSize(32))
	res2, err := submitWait(context.Background(), m2, faulty.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res2.PreStats.Series != 0 {
		t.Fatalf("no-preprocessing run reported telemetry: %+v", res2.PreStats)
	}
}

func TestMasterReassignsAfterWorkerFailure(t *testing.T) {
	sc := testScene(t, 5)
	good := localWorkers(t, 1, nil)
	// A single worker that fails its first two calls: every failed tile
	// must be re-queued and eventually succeed on the same worker, so
	// the retry count is deterministic regardless of scheduling.
	flaky := &flakyWorker{inner: good[0], failures: 2}
	m := testPool(t, []Worker{flaky}, WithPoolTileSize(32), WithPoolRetries(3))
	res, err := submitWait(context.Background(), m, sc.Observed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 2 {
		t.Fatalf("retries = %d, want 2", res.Retries)
	}
	rej, err := crreject.New(crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rej.Integrate(sc.Observed)
	for i := range want.Pix {
		if res.Image.Pix[i] != want.Pix[i] {
			t.Fatalf("image corrupted by retries at %d", i)
		}
	}
}

func TestMasterFailsWhenRetriesExhausted(t *testing.T) {
	sc := testScene(t, 6)
	alwaysBad := &flakyWorker{inner: nil, failures: 1 << 30}
	m := testPool(t, []Worker{alwaysBad}, WithPoolTileSize(32), WithPoolRetries(1))
	if _, err := submitWait(context.Background(), m, sc.Observed); err == nil {
		t.Fatal("pipeline should fail when all workers keep failing")
	}
}

// slowWorker blocks each tile until released.
type slowWorker struct {
	inner   Worker
	started chan struct{}
	release chan struct{}
}

func (w *slowWorker) ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error) {
	w.started <- struct{}{}
	<-w.release
	return w.inner.ProcessTile(ctx, t)
}

func TestRunContextCancellation(t *testing.T) {
	sc := testScene(t, 10)
	inner := localWorkers(t, 1, nil)[0]
	sw := &slowWorker{inner: inner, started: make(chan struct{}, 8), release: make(chan struct{})}
	m := testPool(t, []Worker{sw}, WithPoolTileSize(32))
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := submitWait(ctx, m, sc.Observed)
		errCh <- err
	}()
	<-sw.started // first tile in flight
	cancel()
	close(sw.release) // let the in-flight tile finish
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled pipeline did not return")
	}
}

func TestRunContextCompletesWhenNotCancelled(t *testing.T) {
	sc := testScene(t, 10)
	m := testPool(t, localWorkers(t, 2, nil), WithPoolTileSize(32))
	res, err := submitWait(context.Background(), m, sc.Observed)
	if err != nil || res.Image == nil {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestLocalWorkerRejectsEmptyTile(t *testing.T) {
	w, err := NewLocalWorker(nil, crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ProcessTile(context.Background(), dataset.Tile{}); err == nil {
		t.Fatal("empty tile should error")
	}
}
