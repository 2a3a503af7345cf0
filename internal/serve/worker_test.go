package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"spaceproc/internal/cluster"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
	"spaceproc/internal/telemetry"
)

// The worker-node tests cover what the pool sees of a *Client dispatching
// tiles to a WorkerBackend node: redial after a node restart, remote
// errors charged to the breaker, cancellation that is not, and one trace
// across the wire.

// failingWorker fails every tile and counts the calls.
type failingWorker struct{ calls atomic.Int64 }

func (w *failingWorker) ProcessTile(context.Context, dataset.Tile) (cluster.TileResult, error) {
	w.calls.Add(1)
	return cluster.TileResult{}, errors.New("injected node failure")
}

// plainWorker is a LocalWorker without preprocessing.
func plainWorker(t *testing.T) *cluster.LocalWorker {
	t.Helper()
	w, err := cluster.NewLocalWorker(nil, crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkerNodeSurvivesRestart kills a node mid-session: the exchange
// against the dead node fails (at-most-once: the client never silently
// replays a tile on a fresh connection), and once a replacement listens on
// the same address the next call is served by it.
func TestWorkerNodeSurvivesRestart(t *testing.T) {
	tiles, err := dataset.Fragment(testStack(4, 64, 64), 32)
	if err != nil {
		t.Fatal(err)
	}
	inner := plainWorker(t)
	node, addr := startWorkerNode(t, inner)
	c := dialClient(t, addr)
	ctx := context.Background()
	if _, err := c.ProcessTile(ctx, cloneTile(tiles[0])); err != nil {
		t.Fatal(err)
	}

	node.Close()
	if _, err := c.ProcessTile(ctx, cloneTile(tiles[1])); err == nil {
		t.Fatal("exchange against a closed node should fail")
	}

	node2, err := NewServer(WorkerBackend(inner), WithBatching(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	t.Cleanup(node2.Close)
	res, err := c.ProcessTile(ctx, cloneTile(tiles[1]))
	if err != nil {
		t.Fatalf("redial after restart failed: %v", err)
	}
	if res.Index != tiles[1].Index {
		t.Fatalf("redialled exchange returned tile %d, want %d", res.Index, tiles[1].Index)
	}
}

// TestWorkerNodeRedialBackoff kills a node and brings a replacement up on
// the same address a beat later, within the client's dial backoff window:
// the next call finds the replacement through the backoff dial loop.
func TestWorkerNodeRedialBackoff(t *testing.T) {
	tiles, err := dataset.Fragment(testStack(4, 64, 64), 32)
	if err != nil {
		t.Fatal(err)
	}
	inner := plainWorker(t)
	node, addr := startWorkerNode(t, inner)
	c := dialClient(t, addr, WithClientDialBackoff(6, 10*time.Millisecond))
	ctx := context.Background()
	if _, err := c.ProcessTile(ctx, cloneTile(tiles[0])); err != nil {
		t.Fatal(err)
	}

	node.Close()
	if _, err := c.ProcessTile(ctx, cloneTile(tiles[1])); err == nil {
		t.Fatal("exchange against a closed node should fail")
	}

	rebind := make(chan error, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		node2, err := NewServer(WorkerBackend(inner), WithBatching(1, 0))
		if err == nil {
			if _, err = node2.Listen(addr); err == nil {
				t.Cleanup(node2.Close)
			}
		}
		rebind <- err
	}()
	res, err := c.ProcessTile(ctx, cloneTile(tiles[1]))
	if rerr := <-rebind; rerr != nil {
		t.Skipf("could not rebind %s: %v", addr, rerr)
	}
	if err != nil {
		t.Fatalf("client did not reconnect through backoff: %v", err)
	}
	if res.Index != tiles[1].Index || res.X0 != tiles[1].X0 || res.Y0 != tiles[1].Y0 {
		t.Fatalf("reconnected exchange returned tile %d at (%d,%d), want %d at (%d,%d)",
			res.Index, res.X0, res.Y0, tiles[1].Index, tiles[1].X0, tiles[1].Y0)
	}
}

// TestWorkerRemoteErrorChargesBreaker proves a node's failure reaches the
// pool as a terminal ErrRemote after one attempt, and that the pool
// charges it: with a breaker threshold of two and one retry, a one-tile
// baseline costs exactly two node calls, fails permanently, and leaves
// the node quarantined.
func TestWorkerRemoteErrorChargesBreaker(t *testing.T) {
	fw := &failingWorker{}
	_, addr := startWorkerNode(t, fw)
	c := dialClient(t, addr)
	if _, err := c.ProcessTile(context.Background(), dataset.Tile{Stack: testStack(2, 8, 8)}); !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
	if got := fw.calls.Load(); got != 1 {
		t.Fatalf("node saw %d calls for one ProcessTile, want 1 (no client-side retry)", got)
	}

	fw.calls.Store(0)
	pool := workerPool(t, []cluster.Worker{c},
		cluster.WithPoolRetries(1), cluster.WithBreaker(2, time.Hour, time.Hour))
	res := <-pool.Submit(context.Background(), testStack(2, 32, 32))
	if !errors.Is(res.Err, ErrRemote) {
		t.Fatalf("want the remote error, got %v", res.Err)
	}
	if got := fw.calls.Load(); got != 2 {
		t.Fatalf("node saw %d calls, want 2 (first try plus one charged retry)", got)
	}
	ws := pool.Workers()
	if len(ws) != 1 || ws[0].State != cluster.WorkerQuarantined || ws[0].ConsecutiveFailures != 2 {
		t.Fatalf("worker status %+v, want quarantined after 2 failures", ws)
	}
}

// TestWorkerCancelNotCharged cancels a submission while its tile is on
// the node: the client's error wraps context.Canceled, so the pool
// retires the tile without touching the node's breaker.
func TestWorkerCancelNotCharged(t *testing.T) {
	gw := &gatedWorker{inner: plainWorker(t), gate: make(chan struct{}), begun: make(chan struct{})}
	_, addr := startWorkerNode(t, gw)
	pool := workerPool(t, []cluster.Worker{dialClient(t, addr)}, cluster.WithBreaker(1, time.Hour, time.Hour))

	ctx, cancel := context.WithCancel(context.Background())
	out := pool.Submit(ctx, testStack(2, 32, 32))
	<-gw.begun
	cancel()
	if res := <-out; !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", res.Err)
	}
	ws := pool.Workers()
	if len(ws) != 1 || ws[0].State != cluster.WorkerHealthy || ws[0].ConsecutiveFailures != 0 {
		t.Fatalf("worker status %+v, want healthy with no failures", ws)
	}
}

// TestWorkerNodeTraceParentsUnderPool runs a pool against a node with its
// own registry, standing in for a separate slave process: every tile's
// serve_request span carries the master's trace ID, parents on the
// master's process span for that tile, and stays in the node's registry.
func TestWorkerNodeTraceParentsUnderPool(t *testing.T) {
	masterReg := telemetry.NewRegistry()
	nodeReg := telemetry.NewRegistry()
	_, addr := startWorkerNode(t, plainWorker(t), WithTelemetry(nodeReg))
	nodeReg.Tracer().SetProc("worker " + addr)

	pool := workerPool(t, []cluster.Worker{dialClient(t, addr)}, cluster.WithPoolTelemetry(masterReg))
	if res := <-pool.Submit(context.Background(), testStack(4, 64, 64)); res.Err != nil {
		t.Fatal(res.Err)
	}

	master := masterReg.Tracer().Events()
	traceID := master[0].TraceID
	processIDs := map[uint64]bool{}
	for _, ev := range master {
		if ev.TraceID != traceID {
			t.Fatalf("master event %s has trace %016x, want %016x", ev.Stage, ev.TraceID, traceID)
		}
		if ev.Stage == StageServeRequest {
			t.Fatal("node spans leaked into the master's registry")
		}
		if ev.Stage == cluster.StageProcess {
			processIDs[ev.SpanID] = true
		}
	}
	// 64x64 at 32-px tiles: four tiles, each processed once.
	if len(processIDs) != 4 {
		t.Fatalf("want 4 process spans, got %d", len(processIDs))
	}

	served := stagesByTraceID(nodeReg.Tracer(), traceID)[StageServeRequest]
	if len(served) != 4 {
		t.Fatalf("want 4 serve_request spans in the node registry under the master trace, got %d", len(served))
	}
	for _, ev := range served {
		if !processIDs[ev.ParentID] {
			t.Fatalf("serve_request parent %016x is not a master process span", ev.ParentID)
		}
		delete(processIDs, ev.ParentID)
		if ev.Proc != "worker "+addr {
			t.Fatalf("serve_request proc %q, want the node's", ev.Proc)
		}
	}
}
