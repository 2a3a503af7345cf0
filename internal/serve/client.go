package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"spaceproc/internal/dataset"
	"spaceproc/internal/serve/ring"
	"spaceproc/internal/telemetry"
)

// Client defaults; override via Config or the corresponding Option.
const (
	// DefaultAttempts bounds tries per Process call (first try plus
	// retries over sheds and transport faults).
	DefaultAttempts = 4
	// DefaultRetryBackoff is the first retry delay; it doubles per
	// attempt up to DefaultRetryBackoffMax, and is floored by the
	// server's retry-after hint when one was given.
	DefaultRetryBackoff    = 25 * time.Millisecond
	DefaultRetryBackoffMax = 1 * time.Second
	// DefaultClientDialAttempts and DefaultClientDialBackoff bound the
	// reconnect loop: dials per connect, and the first sleep between
	// them, doubling per attempt.
	DefaultClientDialAttempts = 3
	DefaultClientDialBackoff  = 20 * time.Millisecond
)

// ErrShed is wrapped into the error returned when every attempt was shed;
// callers can errors.Is it to distinguish overload from hard failures.
var ErrShed = errors.New("serve: request shed")

// ErrRemote is wrapped into errors the server reported as terminal
// (invalid request, pipeline failure): the transport worked, the request
// cannot succeed by retrying. A fleet distinguishes it from transport
// faults — a node answering ErrRemote is alive and must not be ejected.
var ErrRemote = errors.New("serve: remote error")

// clientMetrics holds the client's registry handles.
type clientMetrics struct {
	requests *telemetry.Counter
	sheds    *telemetry.Counter
	retries  *telemetry.Counter
	errored  *telemetry.Counter
	canceled *telemetry.Counter
	lat      *telemetry.Histogram
}

// clientNode tracks one fleet member's dial health on the client side:
// the pool's breaker idiom scaled down to a dial-avoidance window, so a
// fleet-aware client stops hammering a dead node's connect timeout on
// every reconnect.
type clientNode struct {
	consecutive int
	backoff     time.Duration
	avoidUntil  time.Time
}

// Client is the Go client for a serve.Server or Router: one connection,
// sequential requests, bounded exponential-backoff retries over sheds
// (honoring the server's retry-after hint as the floor) and transport
// faults (re-dialing with its own bounded backoff, see
// WithClientDialBackoff). Open several clients for parallel submissions.
// Against a WorkerBackend node a Client is also a cluster.Worker (see
// ProcessTile).
//
// A fleet-aware client (DialFleet) holds the same consistent-hash ring a
// router would and dials the member owning its client ID, failing over
// along the ring when that node is unreachable.
//
// A Client is safe for concurrent use; concurrent Process calls serialize
// over the single connection.
type Client struct {
	cfg   Config
	addrs []string   // candidate servers; len > 1 makes the client fleet-aware
	ring  *ring.Ring // nil for a single-address client

	met    *clientMetrics
	tracer *telemetry.Tracer // nil without telemetry; spans degrade to no-ops
	log    *slog.Logger

	mu   sync.Mutex
	conn net.Conn
	// in and out buffer the live connection: each protocol phase is
	// written through out and flushed once, and response pixels decode
	// straight out of in's buffer (see wire.go).
	in      *bufio.Reader
	out     *bufio.Writer
	addr    string // address of the live conn
	nodes   map[string]*clientNode
	backoff time.Duration // current retry delay: doubles per shed, resets on success
}

// DialClient connects to a single serve.Server or Router.
func DialClient(addr string, opts ...Option) (*Client, error) {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return DialWith(cfg, addr)
}

// DialFleet connects a fleet-aware client: requests route to the member
// owning the client's ID on the consistent-hash ring (configure it with
// WithRing to match the fleet's routers), failing over to ring
// successors when a member is unreachable.
func DialFleet(addrs []string, opts ...Option) (*Client, error) {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return DialWith(cfg, addrs...)
}

// DialWith connects using cfg's client fields (invalid values are
// clamped, not errors — a half-configured client still makes progress).
func DialWith(cfg Config, addrs ...string) (*Client, error) {
	if len(addrs) == 0 {
		for _, n := range cfg.Fleet {
			addrs = append(addrs, n.Addr)
		}
	}
	if len(addrs) == 0 {
		return nil, errors.New("serve: no server address")
	}
	cfg.clampClient()
	c := newClient(cfg, addrs)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connect(context.Background()); err != nil {
		return nil, err
	}
	return c, nil
}

// newClient builds an unconnected client; try dials lazily.
func newClient(cfg Config, addrs []string) *Client {
	c := &Client{
		cfg:     cfg,
		addrs:   append([]string(nil), addrs...),
		nodes:   make(map[string]*clientNode),
		backoff: cfg.RetryBackoff,
	}
	if len(addrs) > 1 {
		c.ring = ring.New(cfg.VirtualNodes, cfg.RingSeed)
		c.ring.Add(addrs...)
	}
	if cfg.Telemetry != nil {
		c.met = &clientMetrics{
			requests: cfg.Telemetry.Counter("client_requests_total"),
			sheds:    cfg.Telemetry.Counter("client_sheds_total"),
			retries:  cfg.Telemetry.Counter("client_retries_total"),
			errored:  cfg.Telemetry.Counter("client_errors_total"),
			canceled: cfg.Telemetry.Counter("client_canceled_total"),
			lat:      cfg.Telemetry.Histogram("client_request"),
		}
		c.tracer = cfg.Telemetry.Tracer()
	}
	c.log = cfg.Logger
	return c
}

// candidates returns the dial order: the ring sequence for the client's
// ID with nodes inside their avoidance window demoted to the back, so a
// recently dead member is the last resort instead of the first timeout.
// Callers hold c.mu.
func (c *Client) candidates() []string {
	if c.ring == nil {
		return c.addrs
	}
	seq := c.ring.Sequence(c.cfg.ClientID)
	now := time.Now()
	due := make([]string, 0, len(seq))
	var avoided []string
	for _, a := range seq {
		if n := c.nodes[a]; n != nil && now.Before(n.avoidUntil) {
			avoided = append(avoided, a)
			continue
		}
		due = append(due, a)
	}
	return append(due, avoided...)
}

// noteDial records one dial outcome for a fleet member. Callers hold
// c.mu.
func (c *Client) noteDial(addr string, err error) {
	if c.ring == nil {
		return
	}
	n := c.nodes[addr]
	if n == nil {
		n = &clientNode{}
		c.nodes[addr] = n
	}
	if err == nil {
		n.consecutive = 0
		n.backoff = 0
		n.avoidUntil = time.Time{}
		return
	}
	n.consecutive++
	if n.consecutive < c.cfg.ProbeFailures {
		return
	}
	if n.backoff == 0 {
		n.backoff = c.cfg.ProbeBackoff
	} else if n.backoff *= 2; n.backoff > c.cfg.ProbeBackoffMax {
		n.backoff = c.cfg.ProbeBackoffMax
	}
	n.avoidUntil = time.Now().Add(n.backoff)
}

// connect dials a server with bounded exponential backoff, walking the
// failover candidates on each pass for a fleet-aware client. Callers
// hold c.mu.
func (c *Client) connect(ctx context.Context) error {
	backoff := c.cfg.DialBackoff
	var lastErr error
	for attempt := 0; attempt < c.cfg.DialAttempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
			backoff *= 2
		}
		for _, addr := range c.candidates() {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			c.noteDial(addr, err)
			if err == nil {
				c.conn = conn
				c.addr = addr
				c.in = bufio.NewReaderSize(conn, connBufferSize)
				c.out = bufio.NewWriterSize(conn, connBufferSize)
				return nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
	}
	return fmt.Errorf("serve: dial %v (%d attempts): %w", c.addrs, c.cfg.DialAttempts, lastErr)
}

// ensureConnected dials if the client has no live connection, bounded by
// ctx — the fleet uses it to cap a forwarding dial separately from the
// request's own deadline.
func (c *Client) ensureConnected(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		return nil
	}
	return c.connect(ctx)
}

// send writes through the connection's buffer and flushes it, tearing
// the connection down on failure. Callers hold c.mu.
func (c *Client) send(write func(*bufio.Writer) error) error {
	err := write(c.out)
	if err == nil {
		err = c.out.Flush()
	}
	if err != nil {
		c.teardown()
	}
	return err
}

func (c *Client) teardown() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.addr = ""
		c.in, c.out = nil, nil
	}
}

// Close drops the connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.teardown()
}

// Addr returns the address of the live connection ("" when disconnected)
// — for a fleet-aware client, the member currently serving it.
func (c *Client) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}

// Process streams the baseline to the server and returns the served
// result. Sheds and transport faults are retried with bounded exponential
// backoff (the server's retry-after hint floors each delay); terminal
// server errors (errors.Is ErrRemote) and context expiry return
// immediately. When every attempt was shed the returned error wraps
// ErrShed.
func (c *Client) Process(ctx context.Context, s *dataset.Stack) (*Result, error) {
	return c.process(ctx, c.cfg.ClientID, "", s)
}

// ProcessKeyed is Process with an explicit routing key: fleet routers
// (and fleet-aware clients) place the request on the ring by key instead
// of the client's ID, so callers can pin related baselines — one
// dataset's readouts, say — to one node.
func (c *Client) ProcessKeyed(ctx context.Context, key string, s *dataset.Stack) (*Result, error) {
	return c.process(ctx, c.cfg.ClientID, key, s)
}

// process is the retry loop shared by Process, ProcessKeyed, and the
// fleet's forwarders (which override clientID to preserve the original
// submitter's quota identity end to end).
//
// Tracing: a client with telemetry opens one client_request root span per
// call (a child when ctx already carries a trace, so callers like loadgen
// can parent many requests under one run) and one client_attempt span per
// try — sheds, failovers and retries each leave their own annotated span.
// The attempt's position rides the wire header, so the server's
// serve_request span parents under the attempt that reached it. A lean
// client without telemetry (the fleet's forwarders) records nothing and
// propagates the context's trace position verbatim, so the router's
// forward span becomes the downstream daemon's parent.
func (c *Client) process(ctx context.Context, clientID, key string, s *dataset.Stack) (*Result, error) {
	if s == nil || s.Len() == 0 {
		return nil, errors.New("serve: empty baseline")
	}
	start := time.Now()
	if c.met != nil {
		c.met.requests.Inc()
		defer func() { c.met.lat.Observe(time.Since(start)) }()
	}
	wire, _ := telemetry.TraceFromContext(ctx)
	var root *telemetry.TraceSpan
	if c.tracer != nil {
		root = c.tracer.StartSpan(wire, StageClientRequest, clientID)
		wire = root.Context()
		defer root.End()
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		att := c.tracer.StartSpan(wire, StageClientAttempt, fmt.Sprintf("attempt_%d", attempt))
		attTC := att.Context()
		if !attTC.Valid() {
			attTC = wire
		}
		res, retryIn, err := c.try(ctx, clientID, key, s, attTC)
		endAttempt(att, retryIn, err)
		if err == nil && retryIn < 0 {
			// The server took a request, so its earlier sheds were
			// transient load, not a trend: the next shed starts the
			// backoff ladder from its base again. Without this reset a
			// long-lived connection that saw early sheds would keep its
			// inflated delay forever.
			c.resetBackoff()
			return res, nil
		}
		var terminal *terminalError
		switch {
		case errors.As(err, &terminal):
			if c.met != nil {
				c.met.errored.Inc()
			}
			return nil, terminal.err
		case ctx.Err() != nil:
			// Cancellation is the caller's doing, not the server's: count
			// it in its own series so an aborted run does not read as
			// server errors in client_errors_total.
			if c.met != nil {
				c.met.canceled.Inc()
			}
			return nil, ctx.Err()
		case err != nil:
			lastErr = err
		default: // shed
			if c.met != nil {
				c.met.sheds.Inc()
			}
			lastErr = fmt.Errorf("%w after %d attempt(s)", ErrShed, attempt)
		}
		if attempt >= c.cfg.Attempts {
			if c.met != nil {
				c.met.errored.Inc()
			}
			return nil, lastErr
		}
		delay := c.nextDelay(retryIn)
		if c.log != nil {
			c.log.LogAttrs(ctx, slog.LevelWarn, "retrying request",
				slog.Int("attempt", attempt),
				slog.Duration("delay", delay),
				slog.Any("cause", lastErr))
		}
		if c.met != nil {
			c.met.retries.Inc()
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			if c.met != nil {
				c.met.canceled.Inc()
			}
			return nil, ctx.Err()
		}
	}
}

// nextDelay picks the next retry delay: the ladder's current rung, or
// the server's retry-after hint when the hint is longer. The ladder is
// connection-scoped, not call-scoped: consecutive shed requests on a
// persistent connection keep climbing it, and only a success
// (resetBackoff) descends. It escalates (doubling up to the max) only
// when its own delay is the one used — when the server's hint overrides
// it, the server has already set the pace, and burning a rung on top
// would double-escalate every hinted retry.
func (c *Client) nextDelay(hint time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hint > c.backoff {
		return hint
	}
	d := c.backoff
	if c.backoff *= 2; c.backoff > c.cfg.RetryBackoffMax {
		c.backoff = c.cfg.RetryBackoffMax
	}
	return d
}

// resetBackoff restarts the retry ladder after a served request.
func (c *Client) resetBackoff() {
	c.mu.Lock()
	c.backoff = c.cfg.RetryBackoff
	c.mu.Unlock()
}

// endAttempt annotates one client_attempt span with its outcome and
// records it. Nil spans (no telemetry) are no-ops throughout.
func endAttempt(att *telemetry.TraceSpan, retryIn time.Duration, err error) {
	if att == nil {
		return
	}
	switch {
	case err == nil && retryIn < 0:
		att.Annotate("outcome", "ok")
	case err == nil:
		att.Annotate("outcome", "shed")
		att.Annotate("retry_after", retryIn.String())
	default:
		att.Annotate("outcome", "error")
		att.Annotate("error", err.Error())
	}
	att.End()
}

// terminalError marks a server-reported failure that retrying cannot fix.
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// remoteError wraps a server-reported message so callers can errors.Is
// the ErrRemote sentinel.
func remoteError(msg string) *terminalError {
	return &terminalError{fmt.Errorf("%w: %s", ErrRemote, msg)}
}

// try runs one attempt. Outcomes: (res, -1, nil) success; (nil, hint, nil)
// shed, retry no earlier than hint; (nil, 0, err) transport fault
// (retryable) or *terminalError. wire is the trace position the server
// should parent under (zero for untraced).
func (c *Client) try(ctx context.Context, clientID, key string, s *dataset.Stack, wire telemetry.TraceContext) (*Result, time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if c.conn == nil {
		if err := c.connect(ctx); err != nil {
			return nil, 0, err
		}
	}
	conn := c.conn
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		conn.SetDeadline(deadline)
	} else {
		conn.SetDeadline(time.Time{})
	}
	// On cancellation, expire the socket so a blocked round trip returns
	// instead of hanging until the server answers.
	stopWatch := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Unix(1, 0))
	})
	defer stopWatch()

	hdr := header{Client: clientID, Key: key, Frames: s.Len(), Width: s.Width(), Height: s.Height(),
		TraceID: wire.TraceID, SpanID: wire.SpanID}
	if hasDeadline {
		hdr.Deadline = deadline
	}
	if err := hdr.checkStrings(); err != nil {
		return nil, 0, &terminalError{err}
	}
	// The result is one frame of the request's geometry; its decode is
	// capped accordingly.
	maxPix := hdr.Width * hdr.Height
	if err := c.send(func(w *bufio.Writer) error { return writeHeader(w, &hdr) }); err != nil {
		return nil, 0, fmt.Errorf("serve: send header: %w", err)
	}
	verdict, err := readResponse(c.in, maxPix)
	if err != nil {
		c.teardown()
		return nil, 0, fmt.Errorf("serve: receive admission: %w", err)
	}
	switch verdict.Status {
	case StatusShed, StatusDraining:
		return nil, verdict.RetryAfter, nil
	case StatusError:
		return nil, 0, remoteError(verdict.Err)
	case StatusAccepted:
	default:
		c.teardown()
		return nil, 0, fmt.Errorf("serve: unexpected admission status %v", verdict.Status)
	}
	if err := c.send(func(w *bufio.Writer) error {
		for _, frame := range s.Frames {
			if err := writeFrame(w, frame); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, 0, fmt.Errorf("serve: send frames: %w", err)
	}
	final, err := readResponse(c.in, maxPix)
	if err != nil {
		c.teardown()
		return nil, 0, fmt.Errorf("serve: receive result: %w", err)
	}
	switch final.Status {
	case StatusOK:
		return &Result{
			Image:      final.Image,
			Compressed: final.Compressed,
			Stats:      final.Stats,
			PreStats:   final.PreStats,
			Retries:    final.Retries,
		}, -1, nil
	case StatusShed, StatusDraining:
		// A post-admission shed: a router admitted the request but found
		// every fleet candidate saturated by the time it forwarded. The
		// connection is still in sync, so back off and retry like an
		// admission shed.
		return nil, final.RetryAfter, nil
	case StatusError:
		return nil, 0, remoteError(final.Err)
	default:
		c.teardown()
		return nil, 0, fmt.Errorf("serve: unexpected result status %v", final.Status)
	}
}
