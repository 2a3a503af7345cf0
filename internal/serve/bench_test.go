package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"spaceproc/internal/cluster"
	"spaceproc/internal/dataset"
	"spaceproc/internal/rice"
	"spaceproc/internal/store"
)

// The serve rungs of the benchmark ladder, on the 128×128×16 baseline
// shape of the serve_durable workload. BenchmarkWireCodec is the codec
// alone; BenchmarkServeRoundTrip is one request over loopback TCP
// (admit, receive, digest and WAL when on, dispatch, respond) against a
// backend that answers instantly, so the numbers are the serve tier's
// own cost.

const benchFrames, benchEdge = 16, 128

// instantBackend answers every submission with one precomputed result.
type instantBackend struct{ res *cluster.Result }

func newInstantBackend() instantBackend {
	img := testStack(1, benchEdge, benchEdge).Frames[0]
	return instantBackend{&cluster.Result{Image: img, Compressed: rice.Encode(img.Pix)}}
}

func (b instantBackend) Submit(context.Context, *dataset.Stack) <-chan *cluster.Result {
	out := make(chan *cluster.Result, 1)
	out <- b.res
	return out
}

// BenchmarkWireCodec encodes and decodes one request's frames and its
// served response, as client and server do per request.
func BenchmarkWireCodec(b *testing.B) {
	stack := testStack(benchFrames, benchEdge, benchEdge)
	res := newInstantBackend().res
	resp := &response{Status: StatusOK, Image: res.Image, Compressed: res.Compressed}
	hdr := header{Frames: benchFrames, Width: benchEdge, Height: benchEdge}
	var wire bytes.Buffer
	w := bufio.NewWriterSize(&wire, connBufferSize)
	r := bufio.NewReaderSize(&wire, connBufferSize)
	var out []byte
	b.SetBytes(hdr.payloadBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range stack.Frames {
			if err := writeFrame(w, f); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		p := store.Payload{Frames: hdr.Frames, Width: hdr.Width, Height: hdr.Height,
			Pix: make([]byte, hdr.payloadBytes())}
		fb := 2 * hdr.Width * hdr.Height
		for f := 0; f < hdr.Frames; f++ {
			if _, err := readFrame(r, hdr, len(p.Pix)-f*fb, p.Pix[f*fb:(f+1)*fb]); err != nil {
				b.Fatal(err)
			}
		}
		p.Stack()
		var err error
		if out, err = appendResponse(out[:0], resp); err != nil {
			b.Fatal(err)
		}
		wire.Write(out)
		if _, err := readResponse(r, benchEdge*benchEdge); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeRoundTrip times Client.Process against a loopback server
// at 1 and 8 concurrent clients: wal=off is admission and transport
// alone, wal=on adds the digest and an fsynced WAL append and commit per
// request, and dedupe_hit answers every request from the dedupe cache.
func BenchmarkServeRoundTrip(b *testing.B) {
	for _, mode := range []string{"wal=off", "wal=on", "dedupe_hit"} {
		for _, clients := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/clients=%d", mode, clients), func(b *testing.B) {
				opts := []Option{WithBatching(1, 0)}
				switch mode {
				case "wal=on":
					opts = append(opts, WithWAL(b.TempDir(), true))
				case "dedupe_hit":
					opts = append(opts, WithDedupe(DefaultDedupeCap))
				}
				benchRoundTrip(b, clients, opts)
			})
		}
	}
}

func benchRoundTrip(b *testing.B, clients int, opts []Option) {
	srv, err := NewServer(newInstantBackend(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	stack := testStack(benchFrames, benchEdge, benchEdge)
	cls := make([]*Client, clients)
	for i := range cls {
		if cls[i], err = DialClient(addr, WithClientID(fmt.Sprintf("bench%d", i))); err != nil {
			b.Fatal(err)
		}
		defer cls[i].Close()
		// Warm the connection (and, under dedupe, the cache).
		if _, err := cls[i].Process(context.Background(), stack); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(stack.Len() * stack.Width() * stack.Height() * 2))
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for _, c := range cls {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := c.Process(context.Background(), stack); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
}
