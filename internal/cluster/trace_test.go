package cluster

import (
	"context"
	"testing"

	"spaceproc/internal/telemetry"
)

// traceEvents returns the registry tracer's buffered events keyed by stage.
func traceEvents(t *testing.T, reg *telemetry.Registry) map[string][]telemetry.TraceEvent {
	t.Helper()
	byStage := map[string][]telemetry.TraceEvent{}
	for _, ev := range reg.Tracer().Events() {
		byStage[ev.Stage] = append(byStage[ev.Stage], ev)
	}
	return byStage
}

// rootTraceID asserts every buffered event belongs to one trace and
// returns its ID.
func rootTraceID(t *testing.T, reg *telemetry.Registry) uint64 {
	t.Helper()
	events := reg.Tracer().Events()
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	id := events[0].TraceID
	for _, ev := range events {
		if ev.TraceID != id {
			t.Fatalf("event %s/%s has trace ID %016x, want %016x",
				ev.Stage, ev.Label, ev.TraceID, id)
		}
	}
	return id
}

// TestTraceRetryChildSpans drives retries through a flaky worker and
// asserts the causal chain the tracing layer promises: the retry span is a
// child of the failed dispatch, and the requeued attempt's dispatch span
// parents under the originating dispatch rather than starting a new tree.
func TestTraceRetryChildSpans(t *testing.T) {
	sc := testScene(t, 12)
	reg := telemetry.NewRegistry()

	flaky := &flakyWorker{inner: localWorkers(t, 1, nil)[0], failures: 2}
	m := testPool(t, []Worker{flaky}, WithPoolTileSize(32), WithPoolRetries(3), WithPoolTelemetry(reg))
	if _, err := submitWait(context.Background(), m, sc.Observed); err != nil {
		t.Fatal(err)
	}

	trace := rootTraceID(t, reg)
	byStage := traceEvents(t, reg)
	if len(byStage[StageRetry]) != 2 {
		t.Fatalf("want 2 retry spans, got %d", len(byStage[StageRetry]))
	}

	dispatchByID := map[uint64]telemetry.TraceEvent{}
	firstAttempt := map[string]telemetry.TraceEvent{} // label -> attempt-0 dispatch
	for _, ev := range byStage[StageDispatch] {
		dispatchByID[ev.SpanID] = ev
		if ev.Args["attempt"] == "0" {
			firstAttempt[ev.Label] = ev
		}
	}

	for _, retry := range byStage[StageRetry] {
		if retry.TraceID != trace {
			t.Fatalf("retry span trace %016x != run trace %016x", retry.TraceID, trace)
		}
		parent, ok := dispatchByID[retry.ParentID]
		if !ok {
			t.Fatalf("retry span parent %016x is not a dispatch span", retry.ParentID)
		}
		if retry.Args["error"] == "" {
			t.Fatal("retry span should carry the worker error")
		}
		if parent.Label != retry.Label {
			t.Fatalf("retry for %s parented under dispatch for %s", retry.Label, parent.Label)
		}
	}

	// Requeued dispatches (attempt > 0) must chain to the originating
	// dispatch of the same tile, not to the run root.
	requeues := 0
	for _, ev := range byStage[StageDispatch] {
		if ev.Args["attempt"] == "0" {
			continue
		}
		requeues++
		origin, ok := firstAttempt[ev.Label]
		if !ok {
			t.Fatalf("requeued dispatch %s has no originating dispatch", ev.Label)
		}
		if ev.ParentID != origin.SpanID {
			t.Fatalf("requeued dispatch for %s parents under %016x, want originating dispatch %016x",
				ev.Label, ev.ParentID, origin.SpanID)
		}
	}
	if requeues != 2 {
		t.Fatalf("want 2 requeued dispatch spans, got %d", requeues)
	}
}
