package serve

import (
	"fmt"
	"time"

	"spaceproc/internal/core"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
)

// Wire protocol: little-endian messages over a persistent TCP connection
// (see wire.go for the byte layout), one request at a time per
// connection (a client that wants parallelism opens several connections,
// which is also how per-client quotas are exercised).
//
// Per request the exchange is
//
//	client: header{Client, Key, Frames, Width, Height, Deadline, trace}
//	server: response{Status: Accepted | Shed | Draining | Error}
//	client: Frames x frame{Width, Height, byte count, pixels}
//	        (only after Accepted)
//	server: response{Status: OK | Shed | Error, result on OK}
//
// Admission is decided on the header alone, before the payload is on the
// wire: a shed request costs the network a few dozen bytes, not the
// multi-megabyte baseline. Shed and Draining responses carry a RetryAfter
// hint the client honors as the floor of its backoff. The header opens
// with a magic word and a version byte; a server answers a version it
// does not speak with StatusError and drops the connection.

// Status is the server's verdict in a response frame.
type Status int

// Status values start at 1, so a zeroed response never reads as a
// verdict; they travel as one byte.
const (
	// StatusAccepted admits the request; the client must now stream the
	// baseline's frames.
	StatusAccepted Status = iota + 1
	// StatusShed rejects the request for load (global inflight limit or
	// per-client quota); RetryAfter hints when to try again.
	StatusShed
	// StatusDraining rejects the request because the daemon is shutting
	// down; retrying reaches this instance only if the drain aborts, so
	// clients should treat it like Shed.
	StatusDraining
	// StatusOK carries the processed result.
	StatusOK
	// StatusError carries a terminal server-side failure (invalid header,
	// pipeline error); retrying the same request will not help.
	StatusError
)

// String renders the status for logs and errors.
func (s Status) String() string {
	switch s {
	case StatusAccepted:
		return "accepted"
	case StatusShed:
		return "shed"
	case StatusDraining:
		return "draining"
	case StatusOK:
		return "ok"
	case StatusError:
		return "error"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Trace stage names for the serve tier, in request order. Together with
// the pool's stages (cluster.StageRun and friends) they make up the
// vocabulary of one end-to-end trace: client_request spans the whole
// Process call, client_attempt each try (including sheds and failovers),
// serve_request the daemon's handling, forward each fleet hop, and
// admission / receive / queue_wait / batch / respond the daemon's
// internal phases.
const (
	StageClientRequest = "client_request"
	StageClientAttempt = "client_attempt"
	StageServeRequest  = "serve_request"
	StageAdmission     = "admission"
	StageReceive       = "receive"
	StageQueueWait     = "queue_wait"
	StageBatch         = "batch"
	StageForward       = "forward"
	StageRespond       = "respond"
)

// header opens one request.
type header struct {
	// Client identifies the submitter for quota accounting and per-client
	// telemetry; empty falls back to the connection's remote host.
	Client string
	// Key pins the request's consistent-hash placement when it crosses a
	// fleet router (e.g. a dataset ID, so one dataset's baselines land on
	// one node's cache); empty falls back to Client, keeping each
	// client's traffic on one node.
	Key string
	// Frames is the number of readout frames about to be streamed.
	Frames int
	// Width and Height are the frame dimensions.
	Width, Height int
	// Deadline is the absolute processing cut-off (zero for none); the
	// server derives its pipeline context from it, so client deadlines
	// propagate into pool scheduling. It travels as Unix nanoseconds.
	Deadline time.Time
	// TraceID and SpanID carry the client's trace position so the server
	// continues one distributed trace instead of starting its own. Zero
	// means untraced.
	TraceID uint64
	SpanID  uint64
}

// Request sanity bounds; headers outside them are answered StatusError.
const (
	// MaxFrames bounds readouts per baseline.
	MaxFrames = 4096
	// MaxEdge bounds frame width and height.
	MaxEdge = 16384
)

// payloadBytes is the size of the header's payload, on the wire and in
// memory alike: Frames x Width x Height pixels at 2 bytes each.
// Admission checks it against the server's request byte budget, and the
// receive path reads exactly this many pixel bytes.
func (h header) payloadBytes() int64 {
	return int64(h.Frames) * int64(h.Width) * int64(h.Height) * 2
}

// validate rejects nonsensical or abusive headers before any payload is
// accepted.
func (h header) validate() error {
	switch {
	case h.Frames <= 0 || h.Frames > MaxFrames:
		return fmt.Errorf("serve: %d frames outside (0, %d]", h.Frames, MaxFrames)
	case h.Width <= 0 || h.Width > MaxEdge:
		return fmt.Errorf("serve: width %d outside (0, %d]", h.Width, MaxEdge)
	case h.Height <= 0 || h.Height > MaxEdge:
		return fmt.Errorf("serve: height %d outside (0, %d]", h.Height, MaxEdge)
	}
	return nil
}

// response is both the admission verdict and the final result frame.
type response struct {
	Status Status
	// RetryAfter accompanies Shed and Draining: the server's hint for how
	// long the client should wait before retrying.
	RetryAfter time.Duration
	// Err accompanies StatusError.
	Err string

	// Result payload, set on StatusOK.
	Image      *dataset.Image
	Compressed []byte
	Stats      crreject.Stats
	PreStats   core.VoteStats
	Retries    int
}

// Result is one served baseline's output: the repaired, integrated frame,
// its Rice-compressed downlink payload, and the fault-forensics counters
// the pipeline collected along the way.
type Result struct {
	// Image is the reintegrated full-frame image.
	Image *dataset.Image
	// Compressed is the Rice-compressed downlink payload.
	Compressed []byte
	// Stats aggregates cosmic-ray rejection statistics over all tiles.
	Stats crreject.Stats
	// PreStats aggregates preprocessing telemetry (corrected pixels,
	// window bits, guard rejections) over all tiles.
	PreStats core.VoteStats
	// Retries counts tiles reassigned after worker failures.
	Retries int
}

// CompressionRatio returns input bytes over downlink bytes.
func (r *Result) CompressionRatio() float64 {
	if len(r.Compressed) == 0 {
		return 1
	}
	return float64(2*len(r.Image.Pix)) / float64(len(r.Compressed))
}
