// Command perfbench is spaceproc's end-to-end benchmark. Each run drives
// one named workload against the public spaceproc facade for a fixed
// time, checks every output against a reference, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one
// JSON object on its last line of standard output.
//
//	bash perfbench/run.sh --workload ngst_batch --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30
//	bash perfbench/run.sh --compare old.json new.json
//
// See perfbench/README.md for the workloads and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// outDir, under the checkout's build directory, takes the result records,
// the Chrome traces and the WAL directories.
var outDir = filepath.Join(".bench_build", "out")

// endToEnd lists the metrics an untraced run reports, in print order.
// Their bounds live in BENCHMARK.json.
var endToEnd = []struct{ name, unit, better string }{
	{"throughput_mpx_s", "Mpx/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	compare := fs.Bool("compare", false, "compare the two result records named as arguments")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, errors.New("--compare takes two result records")
		}
		return compareRecords(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 1, err
	}
	if *name == "all" {
		return runAll(stdout, "--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds))
	}
	for _, w := range workloads {
		if w.name == *name {
			rc := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
				trace: *trace == 1, outDir: outDir}
			return runOne(stdout, w, rc)
		}
	}
	return 2, fmt.Errorf("unknown workload %q", *name)
}

// meta stamps a result record with where and from what it was measured.
type meta struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// machine is the part of meta two compared runs must share.
func (m meta) machine() map[string]string {
	return map[string]string{
		"go_version": m.GoVersion, "goos": m.GOOS, "goarch": m.GOARCH, "cpu": m.CPU,
		"nproc": fmt.Sprint(m.NProc), "gomaxprocs": fmt.Sprint(m.GOMAXPROCS),
	}
}

func newMeta(w string, rc runConfig) meta {
	return meta{
		Workload: w, Seed: rc.seed, Seconds: int(rc.seconds / time.Second), Trace: rc.trace,
		Commit: commit(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is one run's result file.
type record struct {
	Meta      meta               `json:"meta"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Path is each layer's time on the blocking path, ms per operation.
	Path map[string]float64 `json:"blocking_path_ms_per_op,omitempty"`
	// Overhead is each end-to-end metric of the traced run relative to
	// the untraced run of the same workload and seed, in percent.
	Overhead map[string]float64 `json:"tracing_overhead_pct,omitempty"`
	// GenLateMS is the p90 of how late the open-loop generator released
	// requests: a check that the run offered the load it meant to.
	GenLateMS float64 `json:"gen_late_ms,omitempty"`
}

func recordPath(dir, w string, seed uint64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("result-%s-seed%d-trace%d.json", w, seed, t))
}

func runOne(stdout io.Writer, w workload, rc runConfig) (int, error) {
	out, err := w.run(rc)
	if err != nil {
		return 1, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := record{Meta: newMeta(w.name, rc), Samples: len(out.samples)}
	var ok int
	var lat []float64
	for _, ss := range [][]sample{out.warm, out.samples} {
		for _, s := range ss {
			rec.Attempted++
			if s.err != nil {
				rec.Failed++
				fmt.Fprintf(os.Stderr, "op %d failed: %v\n", s.op, s.err)
			}
		}
	}
	for _, s := range out.samples {
		if s.err == nil {
			ok++
			lat = append(lat, ms(s.latency()))
		}
	}
	rec.Correct = rec.Failed == 0
	if out.rssMB == 0 {
		return 1, fmt.Errorf("%s: no peak resident memory in /proc/self/status", w.name)
	}
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return 1, fmt.Errorf("%s: latency: %w", w.name, err)
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return 1, fmt.Errorf("%s: latency: %w", w.name, err)
	}
	rec.EndToEnd = map[string]float64{
		"throughput_mpx_s": float64(int64(ok)*out.pixels) / out.wall.Seconds() / 1e6,
		"latency_p50_ms":   p50,
		"latency_p90_ms":   p90,
		"peak_rss_mb":      out.rssMB,
		"setup_s":          median(out.setup),
	}
	fmt.Fprintf(stdout, "%s seed %d: %d operations timed over %.2f s, %d attempted, %d failed, error_rate %.4f\n",
		w.name, rc.seed, len(out.samples), out.wall.Seconds(), rec.Attempted, rec.Failed,
		float64(rec.Failed)/float64(rec.Attempted))
	for _, m := range endToEnd {
		fmt.Fprintf(stdout, "  %-18s %14.4f %s\n", m.name, rec.EndToEnd[m.name], m.unit)
	}
	if out.open {
		late, err := percentile(durationsMS(out.samples, sample.late), 0.9)
		if err != nil {
			return 1, fmt.Errorf("%s: generator lateness: %w", w.name, err)
		}
		rec.GenLateMS = late
		fmt.Fprintf(stdout, "  %-18s %14.4f ms (p90 of how late the generator released requests; run validity)\n", "gen.late_ms", late)
	}
	fmt.Fprintf(stdout, "  machine: %s, %s %s/%s, nproc %d, GOMAXPROCS %d, commit %s\n",
		rec.Meta.CPU, rec.Meta.GoVersion, rec.Meta.GOOS, rec.Meta.GOARCH, rec.Meta.NProc, rec.Meta.GOMAXPROCS, rec.Meta.Commit)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if rc.trace {
		if err := traced(stdout, w.name, rc, out, &rec); err != nil {
			return 1, err
		}
		for _, m := range perLayer {
			metrics[m.name] = value{rec.PerLayer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = value{rec.EndToEnd[m.name], m.unit}
		}
	}
	if err := writeJSON(recordPath(rc.outDir, w.name, rc.seed, rc.trace), rec); err != nil {
		return 1, err
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	return 0, nil
}

// traced fills the per-layer part of a traced run's record, prints the
// blocking-path table, writes the Chrome trace and states the tracing
// overhead against the untraced run of the same workload and seed.
func traced(stdout io.Writer, name string, rc runConfig, out *outcome, rec *record) error {
	if d := out.tr.Dropped(); d > 0 {
		return fmt.Errorf("%s: the tracer dropped %d spans, so the blocking path would be incomplete", name, d)
	}
	events := since(out.tr.Events(), out.from)
	rows, sum := blockingPath(events)
	path := map[string]time.Duration{}
	rec.Path = map[string]float64{}
	for _, r := range rows {
		path[r.layer] = r.total
		rec.Path[r.layer] = msPerOp(r.total, len(out.samples))
	}
	spanLayers(out, events, path, out.layers)
	rec.PerLayer = map[string]float64{}
	for _, m := range perLayer {
		rec.PerLayer[m.name] = out.layers[m.name]
	}

	fmt.Fprintln(stdout, "blocking path, summed over timed operations:")
	printLayerTable(stdout, rows, sum, len(out.samples))
	// The worker span covers preprocessing and CR rejection together; the
	// replayed per-pixel costs split it.
	if ngst, crr := out.layers["core.ngst_ns_per_px"], out.layers["crreject.ns_per_px"]; ngst+crr > 0 && path[layerWorker] > 0 {
		w := msPerOp(path[layerWorker], len(out.samples))
		fmt.Fprintf(stdout, "  worker split by replay: core %.3f ms/op, crreject %.3f ms/op\n", w*ngst/(ngst+crr), w*crr/(ngst+crr))
	}
	fmt.Fprintln(stdout, "per-layer metrics (0: layer not on this workload's path), what they should move, and where:")
	for _, m := range perLayer {
		fmt.Fprintf(stdout, "  %-30s %14.4f %-6s %-34s %s\n", m.name, rec.PerLayer[m.name], m.unit, m.moves, m.on)
	}
	tracePath := filepath.Join(rc.outDir, fmt.Sprintf("trace-%s-seed%d.json", name, rc.seed))
	if err := out.tr.WriteTraceFile(tracePath); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "chrome trace: %s (%d spans in the timed window, warm-up also in the file)\n", tracePath, len(events))

	var base record
	err := readJSON(recordPath(rc.outDir, name, rc.seed, false), &base)
	if err != nil || base.Meta.Commit != rec.Meta.Commit || !maps.Equal(base.Meta.machine(), rec.Meta.machine()) {
		fmt.Fprintf(stdout, "tracing overhead: no untraced run of %s seed %d from this build and machine on record\n", name, rc.seed)
		return nil
	}
	rec.Overhead = map[string]float64{}
	fmt.Fprintln(stdout, "tracing overhead (traced vs untraced, same seed):")
	for _, m := range endToEnd {
		if b := base.EndToEnd[m.name]; b != 0 {
			rec.Overhead[m.name] = 100 * (rec.EndToEnd[m.name] - b) / b
			fmt.Fprintf(stdout, "  %-18s %+8.2f%%\n", m.name, rec.Overhead[m.name])
		}
	}
	return nil
}

// runAll runs every workload untraced and then traced, each in a process
// of its own so peak memory and set-up are per workload; the traced runs
// state their overhead against the untraced ones.
func runAll(stdout io.Writer, common ...string) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	for _, w := range workloads {
		for _, t := range []string{"0", "1"} {
			cmd := exec.Command(self, append([]string{"--workload", w.name, "--trace", t}, common...)...)
			cmd.Stdout, cmd.Stderr = stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return 1, fmt.Errorf("%s trace %s: %w", w.name, t, err)
			}
		}
	}
	return 0, nil
}

// compareRecords prints two result records side by side and fails when a
// metric got worse than the bound the spec file (BENCHMARK.json) fixes for
// it. It refuses, with code 2, records whose numbers are not comparable:
// from different machines, workloads, run lengths or trace settings, or
// from a run with failed operations. It refuses as well a spec it cannot
// read or one that lacks a bound.
func compareRecords(stdout io.Writer, specPath, oldPath, newPath string) (int, error) {
	var a, b record
	if err := readJSON(oldPath, &a); err != nil {
		return 2, err
	}
	if err := readJSON(newPath, &b); err != nil {
		return 2, err
	}
	for _, r := range []struct {
		path string
		rec  record
	}{{oldPath, a}, {newPath, b}} {
		if !r.rec.Correct || r.rec.Failed > 0 {
			return 2, fmt.Errorf("refusing to compare %s: %d of %d operations failed", r.path, r.rec.Failed, r.rec.Attempted)
		}
	}
	ma, mb := a.Meta.machine(), b.Meta.machine()
	var diff []string
	for k, v := range ma {
		if mb[k] != v {
			diff = append(diff, fmt.Sprintf("%s %q vs %q", k, v, mb[k]))
		}
	}
	if a.Meta.Workload != b.Meta.Workload {
		diff = append(diff, fmt.Sprintf("workload %q vs %q", a.Meta.Workload, b.Meta.Workload))
	}
	if a.Meta.Seconds != b.Meta.Seconds {
		diff = append(diff, fmt.Sprintf("seconds %d vs %d", a.Meta.Seconds, b.Meta.Seconds))
	}
	if a.Meta.Trace != b.Meta.Trace {
		diff = append(diff, fmt.Sprintf("trace %v vs %v", a.Meta.Trace, b.Meta.Trace))
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		return 2, fmt.Errorf("refusing to compare runs from different set-ups: %s", strings.Join(diff, "; "))
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := readJSON(specPath, &spec); err != nil {
		return 2, fmt.Errorf("reading the bounds: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	worse := 0
	fmt.Fprintf(stdout, "%s: %s (seed %d) -> %s (seed %d)\n", a.Meta.Workload, a.Meta.Commit, a.Meta.Seed, b.Meta.Commit, b.Meta.Seed)
	for _, m := range endToEnd {
		bound, ok := bounds[m.name]
		if !ok || bound <= 0 {
			return 2, fmt.Errorf("%s fixes no bound for %s", specPath, m.name)
		}
		x, y := a.EndToEnd[m.name], b.EndToEnd[m.name]
		if x <= 0 || y <= 0 {
			return 2, fmt.Errorf("%s is missing from a record (%v, %v)", m.name, x, y)
		}
		change := (y - x) / x
		verdict := ""
		if (m.better == "lower" && change > bound) || (m.better == "higher" && -change > bound) {
			verdict = fmt.Sprintf("  worse than the %.0f%% bound", 100*bound)
			worse++
		}
		fmt.Fprintf(stdout, "  %-18s %14.4f %14.4f %+8.2f%%%s\n", m.name, x, y, 100*change, verdict)
	}
	if worse > 0 {
		return 1, fmt.Errorf("%d metrics worse than their bounds", worse)
	}
	return 0, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}
