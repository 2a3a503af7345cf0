package main

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"time"

	"spaceproc"
	"spaceproc/internal/store"
	"spaceproc/internal/telemetry"
)

// layerMetric is one per-layer metric, the end-to-end metrics a change to
// its layer should move, and the workloads that show it. A traced run
// reports every metric; a layer that is not on a workload's path reads 0.
type layerMetric struct {
	name, unit, better string
	moves, on          string
}

var perLayer = []layerMetric{
	{"core.ngst_ns_per_px", "ns", "lower", "throughput_mpx_s, latency_p50_ms", "ngst_batch, serve_durable"},
	{"core.bits_repaired", "count", "higher", "throughput_mpx_s, latency_p50_ms", "ngst_batch, serve_durable"},
	{"crreject.ns_per_px", "ns", "lower", "throughput_mpx_s", "ngst_batch"},
	{"crreject.cr_hits", "count", "higher", "throughput_mpx_s", "ngst_batch"},
	{"dataset.fragment_ms", "ms", "lower", "throughput_mpx_s", "ngst_batch"},
	{"dataset.reassemble_ms", "ms", "lower", "throughput_mpx_s", "ngst_batch"},
	{"dataset.transpose_ms", "ms", "lower", "throughput_mpx_s", "ngst_batch"},
	{"rice.encode_ms", "ms", "lower", "throughput_mpx_s", "ngst_batch, otis_cube"},
	{"rice.ratio", "ratio", "higher", "throughput_mpx_s", "ngst_batch, otis_cube"},
	{"core.otis_ms_per_cube", "ms", "lower", "throughput_mpx_s", "otis_cube"},
	{"otisapp.retrieve_ms", "ms", "lower", "throughput_mpx_s", "otis_cube"},
	{"cluster.tile_busy_ms", "ms", "lower", "throughput_mpx_s; latency_p90_ms", "ngst_batch; serve_small, serve_durable"},
	{"cluster.worker_util", "ratio", "higher", "throughput_mpx_s; latency_p90_ms", "ngst_batch; serve_small, serve_durable"},
	{"cluster.dispatch_overhead_ms", "ms", "lower", "throughput_mpx_s; latency_p90_ms", "ngst_batch; serve_small, serve_durable"},
	{"cluster.retries", "count", "lower", "throughput_mpx_s; latency_p90_ms", "ngst_batch; serve_small, serve_durable"},
	{"serve.self_ms", "ms", "lower", "latency_p50_ms, latency_p90_ms", "serve_durable, serve_small"},
	{"serve.backend_ms", "ms", "lower", "latency_p50_ms, latency_p90_ms", "serve_durable, serve_small"},
	{"serve.batch_size", "count", "higher", "latency_p50_ms, latency_p90_ms", "serve_durable, serve_small"},
	{"client.retries", "count", "lower", "latency_p50_ms, latency_p90_ms", "serve_durable, serve_small"},
	{"store.wal_append_ms", "ms", "lower", "latency_p50_ms, throughput_mpx_s", "serve_durable"},
	{"store.wal_commit_ms", "ms", "lower", "latency_p50_ms, throughput_mpx_s", "serve_durable"},
	{"store.digest_ms", "ms", "lower", "latency_p50_ms, throughput_mpx_s", "serve_durable"},
	{"serve.dedupe_hit_share", "ratio", "higher", "latency_p50_ms, throughput_mpx_s", "serve_durable"},
}

// replayInputs caps how many of a run's inputs the replays time.
const replayInputs = 16

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// replayNGST times the run's inputs through each NGST layer's exported
// call, one call at a time, and records the medians and exact counts.
func replayNGST(inputs []*spaceproc.Stack, m map[string]float64) error {
	pre, err := spaceproc.NewAlgoNGST(spaceproc.NGSTConfig{Upsilon: upsilon, Sensitivity: sensitivity})
	if err != nil {
		return err
	}
	rej, err := spaceproc.NewCRRejector(spaceproc.DefaultCRConfig())
	if err != nil {
		return err
	}
	var ngst, crr, frag, reas, trans, rice, ratio []float64
	var repaired, hits int
	for _, s := range inputs {
		n, w, h := s.Len(), s.Width(), s.Height()
		px := float64(n * w * h)
		fixed := s.Clone()
		t := time.Now()
		spaceproc.ProcessStackWith(pre, fixed)
		ngst = append(ngst, float64(time.Since(t))/px)
		repaired += bitsChanged(s, fixed)

		t = time.Now()
		img, st := rej.Integrate(fixed)
		crr = append(crr, float64(time.Since(t))/px)
		hits += st.Hits

		t = time.Now()
		tiles, err := spaceproc.Fragment(s, tileSize)
		frag = append(frag, ms(time.Since(t)))
		if err != nil {
			return err
		}
		t = time.Now()
		if _, err := spaceproc.Reassemble(tiles, n, w, h); err != nil {
			return err
		}
		reas = append(reas, ms(time.Since(t)))

		// The plane-major transpose is on the path only where the
		// kernels choose the plane path for this depth.
		if pre.PlaneCapable(n) {
			t = time.Now()
			if _, err := spaceproc.FromStack(s); err != nil {
				return err
			}
			trans = append(trans, ms(time.Since(t)))
		}

		t = time.Now()
		payload := spaceproc.RiceEncode(img.Pix)
		rice = append(rice, ms(time.Since(t)))
		ratio = append(ratio, float64(2*len(img.Pix))/float64(len(payload)))
	}
	m["core.ngst_ns_per_px"] = median(ngst)
	m["core.bits_repaired"] = float64(repaired)
	m["crreject.ns_per_px"] = median(crr)
	m["crreject.cr_hits"] = float64(hits)
	m["dataset.fragment_ms"] = median(frag)
	m["dataset.reassemble_ms"] = median(reas)
	m["dataset.transpose_ms"] = median(trans)
	m["rice.encode_ms"] = median(rice)
	m["rice.ratio"] = mean(ratio)
	return nil
}

// bitsChanged counts the bits preprocessing flipped between two stacks.
func bitsChanged(a, b *spaceproc.Stack) int {
	n := 0
	for f := range a.Frames {
		pa, pb := a.Frames[f].Pix, b.Frames[f].Pix
		for i := range pa {
			n += bits.OnesCount16(pa[i] ^ pb[i])
		}
	}
	return n
}

// replayOTIS times each OTIS stage per cube.
func replayOTIS(cubes []*spaceproc.Cube, wavelengths []float64, m map[string]float64) error {
	w, err := newOTISWorker(wavelengths, false)
	if err != nil {
		return err
	}
	var vote, retr, rice, ratio []float64
	for _, c := range cubes {
		c = c.Clone()
		t := time.Now()
		w.pre.ProcessCube(c)
		vote = append(vote, ms(time.Since(t)))
		t = time.Now()
		prod, err := w.retr.Process(c)
		if err != nil {
			return err
		}
		retr = append(retr, ms(time.Since(t)))
		t = time.Now()
		payload := spaceproc.RiceEncodeFloat32(prod.Emissivity.Data)
		rice = append(rice, ms(time.Since(t)))
		ratio = append(ratio, float64(4*len(prod.Emissivity.Data))/float64(len(payload)))
	}
	m["core.otis_ms_per_cube"] = median(vote)
	m["otisapp.retrieve_ms"] = median(retr)
	m["rice.encode_ms"] = median(rice)
	m["rice.ratio"] = mean(ratio)
	return nil
}

// replayStore times the ingest path's store calls on the inputs: the
// content digest, and a WAL append and commit with fsync, as the daemon
// makes them for every fresh upload.
func replayStore(inputs []*spaceproc.Stack, outDir string, m map[string]float64) error {
	dir := filepath.Join(outDir, fmt.Sprintf("wal-replay-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wal, _, _, err := store.OpenWAL(dir, store.WALOptions{Sync: true})
	if err != nil {
		return err
	}
	defer wal.Close()
	var digest, appendT, commit []float64
	for i, s := range inputs {
		t := time.Now()
		dig := store.StackDigest(s)
		digest = append(digest, ms(time.Since(t)))
		t = time.Now()
		seq, err := wal.Append("bench", fmt.Sprint(i), dig, s)
		if err != nil {
			return err
		}
		appendT = append(appendT, ms(time.Since(t)))
		t = time.Now()
		if err := wal.Commit(seq); err != nil {
			return err
		}
		commit = append(commit, ms(time.Since(t)))
	}
	m["store.digest_ms"] = median(digest)
	m["store.wal_append_ms"] = median(appendT)
	m["store.wal_commit_ms"] = median(commit)
	return nil
}

// serveLayers reads the daemon's registry over the timed window (counters
// minus their values when it opened) for the serve-tier counts.
func serveLayers(sys *serveSystem, out *outcome) map[string]float64 {
	c := sys.reg.Snapshot().Counters
	delta := func(name string) float64 { return float64(c[name] - out.counters0[name]) }
	m := map[string]float64{
		"client.retries": delta("serve_requests_total") - float64(len(out.samples)),
	}
	if b := delta("serve_batches_total"); b > 0 {
		m["serve.batch_size"] = delta("pipeline_runs_total") / b
	}
	if looked := delta("serve_dedupe_hits_total") + delta("serve_dedupe_misses_total"); looked > 0 {
		m["serve.dedupe_hit_share"] = delta("serve_dedupe_hits_total") / looked
	}
	return m
}

// spanLayers derives the cluster and serve metrics from the timed
// window's spans.
func spanLayers(out *outcome, events []telemetry.TraceEvent, path map[string]time.Duration, m map[string]float64) {
	var busy, backend time.Duration
	var tiles, backends, serves int
	for _, ev := range events {
		switch ev.Stage {
		case layerWorker:
			busy += ev.Dur
			tiles++
		case layerCluster:
			backend += ev.Dur
			backends++
		case layerServe:
			serves++
		}
	}
	if tiles > 0 {
		m["cluster.tile_busy_ms"] = ms(busy) / float64(tiles)
		m["cluster.worker_util"] = float64(busy) / float64(workers*out.wall)
	}
	if backends > 0 {
		m["cluster.dispatch_overhead_ms"] = ms(path[layerCluster]) / float64(backends)
		m["cluster.retries"] = float64(out.retries.Load())
	}
	if serves > 0 {
		m["serve.self_ms"] = ms(path[layerServe]) / float64(serves)
	}
	if serves > 0 && backends > 0 {
		m["serve.backend_ms"] = ms(backend) / float64(backends)
	}
}
