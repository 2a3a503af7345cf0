package serve

import (
	"context"
	"errors"
	"fmt"

	"spaceproc/internal/cluster"
	"spaceproc/internal/dataset"
	"spaceproc/internal/telemetry"
)

// Figure 1 worker nodes over the serve transport. A slave node is a
// Server over WorkerBackend(w); the master's pool holds one *Client per
// node, which is itself a cluster.Worker. Tiles therefore cross the wire
// with the same admission, byte budgets, frame validation, deadlines and
// trace propagation as any served baseline: the node's serve_request
// spans stay in its own registry, parented under the pool's process span.

// WorkerBackend adapts one cluster.Worker into a Backend: each admitted
// stack runs as a single tile, and the result carries the tile's Image,
// Stats and PreStats. There is no Rice pass: the master compresses the
// reassembled frame.
func WorkerBackend(w cluster.Worker) Backend { return workerBackend{w} }

type workerBackend struct{ w cluster.Worker }

func (b workerBackend) Submit(ctx context.Context, s *dataset.Stack) <-chan *cluster.Result {
	out := make(chan *cluster.Result, 1)
	go func() {
		res, err := b.w.ProcessTile(ctx, dataset.Tile{Stack: s})
		if err != nil {
			out <- &cluster.Result{Err: err}
			return
		}
		out <- &cluster.Result{Image: res.Image, Stats: res.Stats, PreStats: res.PreStats}
	}()
	return out
}

var _ cluster.Worker = (*Client)(nil)

// ProcessTile implements cluster.Worker against a WorkerBackend node. It
// makes exactly one attempt: sheds, transport faults and remote errors
// all surface to the pool, whose retry budget and circuit breaker own
// redelivery, so a tile is sent at most once per dispatch. A broken
// connection is re-dialed on the next call. The result's Index and X0/Y0
// come from t. When ctx is done the error wraps ctx.Err(), so the pool
// retires a cancelled tile without charging the node.
//
// ProcessTile records no client spans or counters of its own: the
// context's trace position (the pool's process span) rides the wire
// header verbatim and parents the node's serve_request span.
func (c *Client) ProcessTile(ctx context.Context, t dataset.Tile) (cluster.TileResult, error) {
	if t.Stack == nil || t.Stack.Len() == 0 {
		return cluster.TileResult{}, errors.New("serve: empty tile")
	}
	wire, _ := telemetry.TraceFromContext(ctx)
	res, retryIn, err := c.try(ctx, c.cfg.ClientID, "", t.Stack, wire)
	switch {
	case ctx.Err() != nil:
		return cluster.TileResult{}, fmt.Errorf("serve: tile %d: %w", t.Index, ctx.Err())
	case err != nil:
		return cluster.TileResult{}, err
	case retryIn >= 0:
		return cluster.TileResult{}, fmt.Errorf("%w: tile %d", ErrShed, t.Index)
	}
	return cluster.TileResult{
		Index: t.Index, X0: t.X0, Y0: t.Y0,
		Image: res.Image, Stats: res.Stats, PreStats: res.PreStats,
	}, nil
}
