package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"spaceproc"
	"spaceproc/internal/telemetry"
)

// Layer names, used as the stage of every span the benchmark records. Each
// span sits at one layer boundary, around a call into that layer.
const (
	layerGen     = "gen"     // an open-loop request waiting to be sent
	layerServe   = "serve"   // client call minus the backend: admission, codec, batch window, respond, WAL, dedupe
	layerCluster = "cluster" // pool submission minus its tiles: fragment, queue wait, blit, Rice
	layerWorker  = "worker"  // one LocalWorker.ProcessTile: preprocessing and CR rejection
	layerOTIS    = "core.otis"
	layerRetr    = "otisapp"
	layerRice    = "rice"
	layerOp      = "op" // the root of one operation, as the load generator timed it
)

// layerDepth is how deep each layer nests inside an operation. The
// parent of a cluster or worker span is a span the daemon or the pool
// recorded in its own registry, so the benchmark's spans of one operation
// are joined by their trace id, and nesting comes from the layer.
var layerDepth = map[string]int{
	layerOp: 0, layerGen: 1, layerServe: 1, layerOTIS: 1, layerRetr: 1, layerRice: 1,
	layerCluster: 2, layerWorker: 3,
}

// Chrome trace thread ids: client c is row 1+c, the backend and the pool
// workers get rows of their own.
const (
	tidBackend = 100
	tidWorker  = 200
)

// tracePerSecond bounds the spans a traced run may record per second of
// its window, warm-up included; a run that records more fails rather than
// report a blocking path with spans missing. The busiest workload,
// otis_cube, records about 250 a second on the reference machine.
const tracePerSecond = 1024

func newTracer(seconds time.Duration) *telemetry.Tracer {
	return telemetry.NewTracer(tracePerSecond*int(seconds/time.Second+1+warmFor/time.Second), "perfbench")
}

// newSpan names a span in parent's trace, or the root of a new trace when
// parent is zero. Untraced runs (a nil tracer) name nothing.
func newSpan(tr *telemetry.Tracer, parent telemetry.TraceContext) telemetry.TraceContext {
	if tr == nil {
		return telemetry.TraceContext{}
	}
	id := parent.TraceID
	if id == 0 {
		id = telemetry.NewTraceID()
	}
	return telemetry.TraceContext{TraceID: id, SpanID: telemetry.NewSpanID()}
}

// withSpan makes sp the parent of the spans recorded below ctx, when
// traced.
func withSpan(ctx context.Context, tr *telemetry.Tracer, sp telemetry.TraceContext) context.Context {
	if tr == nil {
		return ctx
	}
	return telemetry.ContextWithTrace(ctx, tr, sp)
}

// addSpan records the finished span sp, a child of parent (zero for a root).
func addSpan(tr *telemetry.Tracer, sp, parent telemetry.TraceContext, layer string, tid int, start, end time.Time) {
	tr.Record(telemetry.TraceEvent{TraceID: sp.TraceID, SpanID: sp.SpanID, ParentID: parent.SpanID,
		Stage: layer, TID: int64(tid), Start: start, Dur: end.Sub(start)})
}

// timedWorker wraps a pool worker and records a worker span around each
// ProcessTile, in the trace the pool carried the tile under.
type timedWorker struct {
	w   spaceproc.Worker
	tr  *telemetry.Tracer
	tid int64
}

func (t *timedWorker) ProcessTile(ctx context.Context, tile spaceproc.Tile) (spaceproc.TileResult, error) {
	parent, _ := telemetry.TraceFromContext(ctx)
	sp := t.tr.StartSpan(parent, layerWorker, "")
	sp.SetTID(t.tid)
	res, err := t.w.ProcessTile(ctx, tile)
	sp.End()
	return res, err
}

// timedBackend wraps the daemon's pool and records a cluster span from
// Submit to the delivered result. The daemon continues the client's trace
// into the backend context, which links the two sides of the socket.
type timedBackend struct {
	pool *spaceproc.WorkerPool
	tr   *telemetry.Tracer
}

func (b *timedBackend) Submit(ctx context.Context, s *spaceproc.Stack) <-chan *spaceproc.PipelineResult {
	parent, _ := telemetry.TraceFromContext(ctx)
	sp := b.tr.StartSpan(parent, layerCluster, "")
	sp.SetTID(tidBackend)
	in := b.pool.Submit(ctx, s)
	out := make(chan *spaceproc.PipelineResult, 1)
	go func() {
		res := <-in
		sp.End()
		out <- res
		close(out)
	}()
	return out
}

// layerTime is one row of the per-layer table: the time a layer held the
// blocking path, summed over operations.
type layerTime struct {
	layer string
	total time.Duration
}

// blockingPath attributes every instant of every operation to the deepest
// layer covering it, so the rows add up to the summed end-to-end time even
// where sibling spans run in parallel (tiles of one baseline on two
// workers): parallel time counts once, for the layer doing the work. An
// operation is a trace with a root span (no parent). It returns the rows in
// descending order and the summed root time.
func blockingPath(events []telemetry.TraceEvent) ([]layerTime, time.Duration) {
	traces := make(map[uint64][]telemetry.TraceEvent)
	for _, ev := range events {
		traces[ev.TraceID] = append(traces[ev.TraceID], ev)
	}
	totals := make(map[string]time.Duration)
	var sum time.Duration
	for _, tree := range traces {
		for _, root := range tree {
			if root.ParentID != 0 {
				continue
			}
			lo, hi := root.Start, root.Start.Add(root.Dur)
			sum += root.Dur
			cuts := make([]time.Time, 0, 2*len(tree))
			for _, ev := range tree {
				cuts = append(cuts, clampTime(ev.Start, lo, hi), clampTime(ev.Start.Add(ev.Dur), lo, hi))
			}
			sort.Slice(cuts, func(a, b int) bool { return cuts[a].Before(cuts[b]) })
			for k := 0; k+1 < len(cuts); k++ {
				from, to := cuts[k], cuts[k+1]
				if !to.After(from) {
					continue
				}
				best := root
				for _, ev := range tree {
					if !ev.Start.After(from) && !ev.Start.Add(ev.Dur).Before(to) && layerDepth[ev.Stage] > layerDepth[best.Stage] {
						best = ev
					}
				}
				totals[best.Stage] += to.Sub(from)
			}
		}
	}
	rows := make([]layerTime, 0, len(totals))
	for l, t := range totals {
		rows = append(rows, layerTime{l, t})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].total > rows[b].total })
	return rows, sum
}

// clampTime keeps a span's boundary inside its operation, so a span that
// outlives the operation (a worker finishing a tile after a cancel) cannot
// extend it.
func clampTime(t, lo, hi time.Time) time.Time {
	if t.Before(lo) {
		return lo
	}
	if t.After(hi) {
		return hi
	}
	return t
}

// since keeps the events that started at or after t.
func since(events []telemetry.TraceEvent, t time.Time) []telemetry.TraceEvent {
	var out []telemetry.TraceEvent
	for _, ev := range events {
		if !ev.Start.Before(t) {
			out = append(out, ev)
		}
	}
	return out
}

// printLayerTable prints the blocking-path table: each layer's share of
// the summed end-to-end time, per operation.
func printLayerTable(w io.Writer, rows []layerTime, sum time.Duration, ops int) {
	fmt.Fprintf(w, "%-12s %12s %8s\n", "layer", "ms/op", "share")
	var acc time.Duration
	for _, r := range rows {
		acc += r.total
		fmt.Fprintf(w, "%-12s %12.3f %7.1f%%\n", r.layer, msPerOp(r.total, ops), 100*float64(r.total)/float64(sum))
	}
	fmt.Fprintf(w, "%-12s %12.3f %7.1f%% of %d ops\n", "total", msPerOp(acc, ops), 100*float64(acc)/float64(sum), ops)
}

func msPerOp(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond) / float64(ops)
}
