package serve

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"spaceproc/internal/cluster"
	"spaceproc/internal/core"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
)

// The conformance suite holds every cluster.Worker implementation to one
// contract: on fault-injected AlgoNGST tiles each returns exactly what an
// in-process LocalWorker returns (placement, image, rejection stats and
// preprocessing stats), a pool over it reproduces an in-process pool's
// baseline bit for bit, an empty tile is an error, and a cancelled
// context surfaces as context.Canceled.

// ngstWorker builds an AlgoNGST LocalWorker at the default sensitivity.
func ngstWorker(t *testing.T, opts ...cluster.LocalWorkerOption) *cluster.LocalWorker {
	t.Helper()
	pre, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := cluster.NewLocalWorker(pre, crreject.DefaultConfig(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// startWorkerNode boots a Figure 1 worker node: a Server over
// WorkerBackend(w) with batching off, as cmd/ngstsim -tcp runs it.
func startWorkerNode(t *testing.T, w cluster.Worker, opts ...Option) (*Server, string) {
	t.Helper()
	return startServer(t, WorkerBackend(w), append([]Option{WithBatching(1, 0)}, opts...)...)
}

// workerPool builds a 32-px-tile pool over workers that closes with the
// test.
func workerPool(t *testing.T, workers []cluster.Worker, opts ...cluster.PoolOption) *cluster.Pool {
	t.Helper()
	pool, err := cluster.NewPool(append([]cluster.PoolOption{cluster.WithPoolTileSize(32)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	for _, w := range workers {
		pool.AddWorker(w)
	}
	return pool
}

// cloneTile copies a tile so a worker that repairs in place never sees
// another worker's output.
func cloneTile(tl dataset.Tile) dataset.Tile {
	return dataset.Tile{Index: tl.Index, X0: tl.X0, Y0: tl.Y0, Stack: tl.Stack.Clone()}
}

func TestWorkerConformance(t *testing.T) {
	ctx := context.Background()
	faulty := e2eBaseline(t, 21)
	tiles, err := dataset.Fragment(faulty, 32)
	if err != nil {
		t.Fatal(err)
	}
	ref := ngstWorker(t)
	want := make([]cluster.TileResult, len(tiles))
	for i, tl := range tiles {
		if want[i], err = ref.ProcessTile(ctx, cloneTile(tl)); err != nil {
			t.Fatal(err)
		}
	}
	wantRun := <-workerPool(t, []cluster.Worker{ngstWorker(t), ngstWorker(t)}).Submit(ctx, faulty.Clone())
	if wantRun.Err != nil {
		t.Fatal(wantRun.Err)
	}
	if wantRun.PreStats.Corrected == 0 || wantRun.Stats.Hits == 0 {
		t.Fatal("reference run repaired nothing; the suite would compare zeros")
	}

	// A one-level cost model pins the adaptive worker at the reference
	// sensitivity whatever its budget.
	adaptive, err := cluster.NewAdaptive(cluster.DefaultAdaptiveConfig(cluster.CostModel{
		Lambdas: []int{core.DefaultNGSTConfig().Sensitivity}, UnitCost: []float64{0}}))
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startWorkerNode(t, ngstWorker(t))

	workers := []struct {
		name string
		w    cluster.Worker
	}{
		{"LocalWorker", ngstWorker(t)},
		{"LocalWorker/shards=2", ngstWorker(t, cluster.WithShards(2))},
		{"AdaptiveWorker", adaptive},
		{"Client/WorkerBackend", dialClient(t, addr)},
	}
	for _, wc := range workers {
		t.Run(wc.name, func(t *testing.T) {
			for i, tl := range tiles {
				got, err := wc.w.ProcessTile(ctx, cloneTile(tl))
				if err != nil {
					t.Fatalf("tile %d: %v", tl.Index, err)
				}
				w := want[i]
				if got.Index != w.Index || got.X0 != w.X0 || got.Y0 != w.Y0 {
					t.Fatalf("tile %d placed at #%d (%d,%d), want #%d (%d,%d)",
						tl.Index, got.Index, got.X0, got.Y0, w.Index, w.X0, w.Y0)
				}
				if !equalPix(got.Image, w.Image) {
					t.Fatalf("tile %d image differs from LocalWorker's", tl.Index)
				}
				if got.Stats != w.Stats {
					t.Fatalf("tile %d stats %+v, want %+v", tl.Index, got.Stats, w.Stats)
				}
				if got.PreStats != w.PreStats {
					t.Fatalf("tile %d preprocessing stats %+v, want %+v", tl.Index, got.PreStats, w.PreStats)
				}
			}

			run := <-workerPool(t, []cluster.Worker{wc.w}).Submit(ctx, faulty.Clone())
			if run.Err != nil {
				t.Fatal(run.Err)
			}
			if !equalPix(run.Image, wantRun.Image) || !bytes.Equal(run.Compressed, wantRun.Compressed) ||
				run.Stats != wantRun.Stats || run.PreStats != wantRun.PreStats {
				t.Fatal("pooled baseline differs from the in-process pool's")
			}

			if _, err := wc.w.ProcessTile(ctx, dataset.Tile{}); err == nil {
				t.Fatal("empty tile should error")
			}
			if _, err := wc.w.ProcessTile(ctx, dataset.Tile{Stack: &dataset.Stack{}}); err == nil {
				t.Fatal("frameless tile should error")
			}

			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := wc.w.ProcessTile(cancelled, cloneTile(tiles[0])); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled ctx gave %v, want context.Canceled", err)
			}
		})
	}
}

// equalPix reports whether two images have the same geometry and pixels.
func equalPix(a, b *dataset.Image) bool {
	if a == nil || b == nil || a.Width != b.Width || a.Height != b.Height || len(a.Pix) != len(b.Pix) {
		return false
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			return false
		}
	}
	return true
}
