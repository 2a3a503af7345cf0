package serve

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"spaceproc/internal/core"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
	"spaceproc/internal/rice"
	"spaceproc/internal/store"
)

// allocSlack absorbs allocations the runtime or the fuzzing engine makes
// while a decoder runs; the bounds the fuzzers check are far larger.
const allocSlack = 64 << 10

// allocated runs f and reports the bytes the process allocated meanwhile.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// wireReader wraps data for a decoder and reports how many bytes the
// decoder consumed.
func wireReader(data []byte) (*bufio.Reader, func() int) {
	src := bytes.NewReader(data)
	r := bufio.NewReader(src)
	return r, func() int { return len(data) - src.Len() - r.Buffered() }
}

func encodeFrames(t testing.TB, s *dataset.Stack) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, f := range s.Frames {
		if err := writeFrame(w, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustAppendResponse(t testing.TB, resp *response) []byte {
	t.Helper()
	b, err := appendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sampleResponse() *response {
	img := testStack(1, 16, 8).Frames[0]
	return &response{
		Status:     StatusOK,
		Image:      img,
		Compressed: rice.Encode(img.Pix),
		Stats:      crreject.Stats{Hits: 3, Steps: 4},
		PreStats: core.VoteStats{Series: 128, Corrected: 7, BitsWindowA: 5,
			BitsWindowB: 2, GuardRejected: 1, WindowCBit: 11},
		Retries: 2,
	}
}

func TestWireHeaderRoundTrip(t *testing.T) {
	for _, h := range []header{
		{Frames: 1, Width: 1, Height: 1},
		{Client: "alice", Key: "dataset-7", Frames: MaxFrames, Width: MaxEdge, Height: 3,
			Deadline: time.Unix(1700000000, 123456789), TraceID: 1<<63 | 5, SpanID: 42},
	} {
		b := appendHeader(nil, &h)
		r, consumed := wireReader(append(b, 0xff)) // trailing byte stays unread
		got, err := readHeader(r)
		if err != nil {
			t.Fatal(err)
		}
		if consumed() != len(b) {
			t.Fatalf("consumed %d of %d header bytes", consumed(), len(b))
		}
		if !got.Deadline.Equal(h.Deadline) {
			t.Fatalf("deadline %v, want %v", got.Deadline, h.Deadline)
		}
		got.Deadline, h.Deadline = time.Time{}, time.Time{}
		if got != h {
			t.Fatalf("decoded %+v, want %+v", got, h)
		}
	}
}

func TestWireHeaderRefusals(t *testing.T) {
	long := strings.Repeat("k", maxWireString+1)
	if err := (&header{Key: long}).checkStrings(); err == nil {
		t.Fatal("an over-cap key must not be encodable")
	}
	// A peer that writes one anyway is refused before the allocation.
	b := appendHeader(nil, &header{Frames: 1, Width: 1, Height: 1, Client: long})
	if _, err := readHeader(bufio.NewReader(bytes.NewReader(b))); !errors.Is(err, errWire) {
		t.Fatalf("over-cap client string: got %v, want errWire", err)
	}
	bad := appendHeader(nil, &header{Frames: 1, Width: 1, Height: 1})
	bad[0] = 'X'
	if _, err := readHeader(bufio.NewReader(bytes.NewReader(bad))); !errors.Is(err, errWire) {
		t.Fatalf("bad magic: got %v, want errWire", err)
	}
}

// TestWireFramesAreThePayload pins the layout the server relies on: the
// frames' pixel bytes, concatenated as received, are the store.Payload
// of the stack, so digesting them equals store.StackDigest and decoding
// them reproduces the stack.
func TestWireFramesAreThePayload(t *testing.T) {
	s := testStack(5, 7, 3)
	hdr := header{Frames: s.Len(), Width: s.Width(), Height: s.Height()}
	r, _ := wireReader(encodeFrames(t, s))
	p := store.Payload{Frames: hdr.Frames, Width: hdr.Width, Height: hdr.Height,
		Pix: make([]byte, hdr.payloadBytes())}
	fb := 2 * hdr.Width * hdr.Height
	for i := 0; i < hdr.Frames; i++ {
		if _, err := readFrame(r, hdr, len(p.Pix)-i*fb, p.Pix[i*fb:(i+1)*fb]); err != nil {
			t.Fatal(err)
		}
	}
	if p.Digest() != store.StackDigest(s) {
		t.Fatal("digest of the received bytes differs from store.StackDigest")
	}
	if !reflect.DeepEqual(p.Stack(), s) {
		t.Fatal("decoded stack differs from the sent one")
	}
}

func TestWireFrameRefusals(t *testing.T) {
	hdr := header{Frames: 2, Width: 4, Height: 2}
	frame := encodeFrames(t, testStack(1, 4, 2))
	dst := make([]byte, 16)

	// Over the remaining budget: refused on the prefix, pixels unread.
	r, consumed := wireReader(frame)
	if _, err := readFrame(r, hdr, 15, dst); !errors.Is(err, errFrameBudget) {
		t.Fatalf("got %v, want errFrameBudget", err)
	}
	if consumed() != frameHeadSize {
		t.Fatalf("over-budget frame consumed %d bytes, want the %d-byte prefix", consumed(), frameHeadSize)
	}
	// Wrong geometry within budget: consumed whole, refused.
	r, consumed = wireReader(frame)
	fh, err := readFrame(r, header{Frames: 2, Width: 2, Height: 4}, 32, dst)
	if !errors.Is(err, errFrameMismatch) || fh != (frameHead{4, 2, 16}) {
		t.Fatalf("got %+v %v, want 4x2 errFrameMismatch", fh, err)
	}
	if consumed() != len(frame) {
		t.Fatalf("mismatched frame consumed %d of %d bytes", consumed(), len(frame))
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	for _, resp := range []*response{
		sampleResponse(),
		{Status: StatusOK}, // no image, no payload
		{Status: StatusAccepted},
		{Status: StatusShed, RetryAfter: 75 * time.Millisecond},
		{Status: StatusError, Err: "serve: pipeline exploded"},
	} {
		b := mustAppendResponse(t, resp)
		r, consumed := wireReader(b)
		got, err := readResponse(r, 16*8)
		if err != nil {
			t.Fatal(err)
		}
		if consumed() != len(b) {
			t.Fatalf("consumed %d of %d response bytes", consumed(), len(b))
		}
		if !reflect.DeepEqual(&got, resp) {
			t.Fatalf("decoded %+v, want %+v", got, *resp)
		}
	}
}

func TestWireResponseRefusals(t *testing.T) {
	b := mustAppendResponse(t, sampleResponse())
	// The 16x8 result is larger than a 10-pixel request's frames.
	if _, err := readResponse(bufio.NewReader(bytes.NewReader(b)), 10); !errors.Is(err, errWire) {
		t.Fatalf("oversized result image: got %v, want errWire", err)
	}
	long := &response{Status: StatusError, Err: strings.Repeat("e", maxWireErr+10)}
	got, err := readResponse(bufio.NewReader(bytes.NewReader(mustAppendResponse(t, long))), 0)
	if err != nil || len(got.Err) != maxWireErr {
		t.Fatalf("long error: %d bytes, %v; want truncation to %d", len(got.Err), err, maxWireErr)
	}
	bad := sampleResponse()
	bad.Image = &dataset.Image{Width: 4, Height: 4, Pix: make([]uint16, 3)}
	if _, err := appendResponse(nil, bad); err == nil {
		t.Fatal("an image with the wrong pixel count must not encode")
	}
}

// FuzzReadHeader: no input panics the header decoder or makes it
// allocate past the string caps, and every header it accepts re-encodes
// to exactly the bytes it consumed and decodes back to itself.
func FuzzReadHeader(f *testing.F) {
	f.Add(appendHeader(nil, &header{Frames: 16, Width: 128, Height: 128}))
	f.Add(appendHeader(nil, &header{Client: "c", Key: "k", Frames: 1, Width: 2, Height: 3,
		Deadline: time.Unix(0, 1), TraceID: 9, SpanID: 10}))
	f.Add([]byte(wireMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, consumed := wireReader(data)
		var h header
		var err error
		if n := allocated(func() { h, err = readHeader(r) }); n > 4*maxWireString+allocSlack {
			t.Fatalf("readHeader allocated %d bytes", n)
		}
		if err != nil {
			return
		}
		b := appendHeader(nil, &h)
		if !bytes.Equal(b, data[:consumed()]) {
			t.Fatalf("re-encoded %x, consumed %x", b, data[:consumed()])
		}
		again, err := readHeader(bufio.NewReader(bytes.NewReader(b)))
		if err != nil || !again.Deadline.Equal(h.Deadline) {
			t.Fatalf("re-decode: %v, deadline %v vs %v", err, again.Deadline, h.Deadline)
		}
		again.Deadline, h.Deadline = time.Time{}, time.Time{}
		if again != h {
			t.Fatalf("re-decoded %+v, want %+v", again, h)
		}
	})
}

// FuzzReadFrame: no input panics the frame decoder or makes it allocate
// at all (the destination is the caller's), a prefix past the budget is
// refused unread, and every accepted frame re-encodes to exactly the
// bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint16(12), encodeFrames(f, testStack(1, 2, 3)))
	f.Add(uint8(2), uint8(3), uint16(100), encodeFrames(f, testStack(1, 3, 2)))
	f.Add(uint8(1), uint8(1), uint16(1), encodeFrames(f, testStack(1, 1, 1)))
	f.Fuzz(func(t *testing.T, w, h uint8, budget uint16, data []byte) {
		if w == 0 || h == 0 {
			return
		}
		hdr := header{Frames: 1, Width: int(w), Height: int(h)}
		dst := make([]byte, 2*hdr.Width*hdr.Height)
		r, consumed := wireReader(data)
		var fh frameHead
		var err error
		if n := allocated(func() { fh, err = readFrame(r, hdr, int(budget), dst) }); n > allocSlack {
			t.Fatalf("readFrame allocated %d bytes", n)
		}
		switch {
		case errors.Is(err, errFrameBudget):
			if fh.Bytes <= int(budget) {
				t.Fatalf("refused %d bytes within a %d-byte budget", fh.Bytes, budget)
			}
			if consumed() != frameHeadSize {
				t.Fatalf("over-budget frame consumed %d bytes", consumed())
			}
			return
		case err != nil:
			return
		}
		img := &dataset.Image{Width: fh.Width, Height: fh.Height, Pix: make([]uint16, len(dst)/2)}
		dataset.PixelsFromLE(img.Pix, dst)
		if got := encodeFrames(t, &dataset.Stack{Frames: []*dataset.Image{img}}); !bytes.Equal(got, data[:consumed()]) {
			t.Fatalf("re-encoded %x, consumed %x", got, data[:consumed()])
		}
	})
}

// FuzzReadResponse: no input panics the response decoder or makes it
// allocate past what the request geometry and the caps allow, and every
// response it accepts re-encodes to exactly the bytes it consumed and
// decodes back to itself.
func FuzzReadResponse(f *testing.F) {
	f.Add(uint16(16*8), mustAppendResponse(f, sampleResponse()))
	f.Add(uint16(4), mustAppendResponse(f, &response{Status: StatusShed, RetryAfter: time.Second}))
	f.Add(uint16(4), mustAppendResponse(f, &response{Status: StatusError, Err: "no"}))
	f.Fuzz(func(t *testing.T, maxPix uint16, data []byte) {
		r, consumed := wireReader(data)
		var resp response
		var err error
		bound := uint64(2*int(maxPix) + maxCompressed(int(maxPix)) + 2*maxWireErr + allocSlack)
		if n := allocated(func() { resp, err = readResponse(r, int(maxPix)) }); n > bound {
			t.Fatalf("readResponse allocated %d bytes, bound %d", n, bound)
		}
		if err != nil {
			return
		}
		b := mustAppendResponse(t, &resp)
		if !bytes.Equal(b, data[:consumed()]) {
			t.Fatalf("re-encoded %x, consumed %x", b, data[:consumed()])
		}
		again, err := readResponse(bufio.NewReader(bytes.NewReader(b)), int(maxPix))
		if err != nil || !reflect.DeepEqual(again, resp) {
			t.Fatalf("re-decoded %+v (%v), want %+v", again, err, resp)
		}
	})
}
