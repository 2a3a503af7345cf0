package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spaceproc/internal/telemetry"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // rank 90, 10 beyond
		{99, 0.9, 0, false},  // rank 90, 9 beyond
		{20, 0.5, 10, true},  // rank 10, 10 beyond
		{19, 0.5, 0, false},  // rank 10, 9 beyond
		{1000, 0.99, 990, true},
		{0, 0.5, 0, false},
		{100, 0, 0, false},
		{100, 1, 0, false},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("percentile(%d samples, %v): err = %v, want ok = %v", tc.n, tc.p, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 1000, 10*time.Second)
	b := poissonSchedule(7, 1000, 10*time.Second)
	c := poissonSchedule(8, 1000, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d", i)
		}
	}
	if a[0] == c[0] && a[1] == c[1] {
		t.Errorf("different seeds gave the same schedule")
	}
	if len(a) != 10000 {
		t.Errorf("%d arrivals at 1000/s over 10 s, want 10000", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not ordered at %d", i)
		}
	}
	// Poisson arrivals leave exponential gaps: the share of gaps longer
	// than the mean gap is about 1/e.
	long := 0
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] > time.Millisecond {
			long++
		}
	}
	if share := float64(long) / float64(len(a)-1); share < 0.34 || share > 0.40 {
		t.Errorf("%.3f of gaps exceed the mean gap, want about 1/e", share)
	}
}

// TestOpenLoopStallShowsAsLatency stalls a fake server for 150 ms and
// checks that every request due during the stall carries the rest of the
// stall in its latency, even though the server answers each of them
// quickly once it takes them.
func TestOpenLoopStallShowsAsLatency(t *testing.T) {
	const (
		every      = 5 * time.Millisecond
		stallStart = 100 * time.Millisecond
		stallEnd   = 250 * time.Millisecond
		runFor     = 400 * time.Millisecond
	)
	var sched []time.Duration
	for d := time.Duration(0); d < runFor; d += every {
		sched = append(sched, d)
	}
	start := time.Now()
	samples, _ := openLoop(sched, 2, 0, func(_, _ int, st *stamp) error {
		if since := time.Since(start); since >= stallStart && since < stallEnd {
			time.Sleep(stallEnd - since)
		}
		st.begin() // the server starts this request's work now
		time.Sleep(time.Millisecond)
		st.done()
		return nil
	})
	const slack = 2 * time.Millisecond
	hidden := 0
	for i, s := range samples {
		due := sched[i]
		if due < stallStart+slack || due >= stallEnd {
			continue
		}
		left := stallEnd - due
		if s.latency() < left-slack {
			t.Errorf("request due at %v: latency %v, but %v of the stall was left", due, s.latency(), left)
		}
		if s.end.Sub(s.start) < 10*time.Millisecond && left > 50*time.Millisecond {
			hidden++
		}
	}
	if hidden == 0 {
		t.Errorf("no stalled request had a short service time; the test does not separate due-time latency from service time")
	}
}

func TestBlockingPathCountsParallelTimeOnce(t *testing.T) {
	t0 := time.Now()
	ev := func(trace, id, parent uint64, layer string, from, to int) telemetry.TraceEvent {
		return telemetry.TraceEvent{TraceID: trace, SpanID: id, ParentID: parent, Stage: layer,
			Start: t0.Add(time.Duration(from) * time.Millisecond), Dur: time.Duration(to-from) * time.Millisecond}
	}
	events := []telemetry.TraceEvent{
		ev(1, 1, 0, layerOp, 0, 100),
		ev(1, 2, 1, layerCluster, 10, 90),
		// Workers parent under spans the pool keeps to itself: the trace
		// id places them.
		ev(1, 3, 99, layerWorker, 20, 60),
		ev(1, 4, 98, layerWorker, 30, 80),
		// A span that outlives its root is clipped to it.
		ev(2, 5, 0, layerCluster, 200, 250),
		ev(2, 6, 97, layerWorker, 240, 300),
		// A trace without a root is not an operation.
		ev(3, 7, 96, layerWorker, 400, 500),
	}
	rows, sum := blockingPath(events)
	got := map[string]time.Duration{}
	var total time.Duration
	for _, r := range rows {
		got[r.layer] = r.total
		total += r.total
	}
	want := map[string]time.Duration{
		layerOp:      20 * time.Millisecond,
		layerCluster: 20*time.Millisecond + 40*time.Millisecond,
		layerWorker:  60*time.Millisecond + 10*time.Millisecond,
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("%s: %v, want %v", l, got[l], w)
		}
	}
	if sum != 150*time.Millisecond || total != sum {
		t.Errorf("rows add to %v, roots to %v, want 150ms both", total, sum)
	}
}

// TestCompareRefusesWhatItCannotJudge checks every case in which the
// comparison must refuse (exit 2) rather than pass, and that it passes a
// small change and fails one beyond a bound.
func TestCompareRefusesWhatItCannotJudge(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		t.Helper()
		path := filepath.Join(dir, name)
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	type bound struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	}
	var all []bound
	for _, m := range endToEnd {
		all = append(all, bound{m.name, 0.25})
	}
	spec := write("spec.json", map[string]any{"end_to_end": all})
	lacking := write("lacking.json", map[string]any{"end_to_end": all[1:]})
	malformed := filepath.Join(dir, "malformed.json")
	if err := os.WriteFile(malformed, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := func() record {
		r := record{
			Meta:    meta{Workload: "ngst_batch", Seconds: 30, GoVersion: "go1", GOOS: "linux", GOARCH: "amd64", CPU: "x", NProc: 2, GOMAXPROCS: 2},
			Correct: true, Attempted: 100, EndToEnd: map[string]float64{},
		}
		for _, m := range endToEnd {
			r.EndToEnd[m.name] = 10
		}
		return r
	}
	old := write("old.json", base())
	for _, tc := range []struct {
		name string
		spec string
		edit func(*record)
		want int
	}{
		{"same", spec, func(*record) {}, 0},
		{"within bound", spec, func(r *record) { r.EndToEnd["latency_p50_ms"] = 12 }, 0},
		{"beyond bound", spec, func(r *record) { r.EndToEnd["latency_p50_ms"] = 13 }, 1},
		{"throughput beyond bound", spec, func(r *record) { r.EndToEnd["throughput_mpx_s"] = 7 }, 1},
		{"no spec", filepath.Join(dir, "missing.json"), func(*record) {}, 2},
		{"malformed spec", malformed, func(*record) {}, 2},
		{"spec lacks a bound", lacking, func(*record) {}, 2},
		{"incorrect", spec, func(r *record) { r.Correct = false }, 2},
		{"failed operations", spec, func(r *record) { r.Failed = 1 }, 2},
		{"traced against untraced", spec, func(r *record) { r.Meta.Trace = true }, 2},
		{"other run length", spec, func(r *record) { r.Meta.Seconds = 10 }, 2},
		{"other machine", spec, func(r *record) { r.Meta.CPU = "y" }, 2},
		{"other workload", spec, func(r *record) { r.Meta.Workload = "otis_cube" }, 2},
		{"metric missing", spec, func(r *record) { delete(r.EndToEnd, "setup_s") }, 2},
	} {
		r := base()
		tc.edit(&r)
		code, err := compareRecords(io.Discard, tc.spec, old, write("new.json", r))
		if code != tc.want {
			t.Errorf("%s: exit %d (%v), want %d", tc.name, code, err, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps the committed BENCHMARK.json and the
// tables the benchmark prints from in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, code gates %d", len(spec.Workloads), len(gated))
	}
	for i, w := range gated {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %q %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := spec.EndToEnd[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better || j.Bound <= 0 || j.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: json %+v, code %+v", i, j, m)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		j := spec.PerLayer[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
			t.Errorf("per-layer metric %d: json %+v, code %+v", i, j, m)
		}
	}
}
