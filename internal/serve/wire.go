package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"spaceproc/internal/dataset"
)

// The wire codec: fixed-width little-endian fields, length-prefixed
// strings and frames, pixels as little-endian uint16 — the byte layout
// store.Payload, the content digest and the WAL's CHUNK records share,
// so the server digests and logs the bytes it received as they are.
//
//	header   = magic "SPSV" | version u8 | frames u32 | width u32 |
//	           height u32 | deadline i64 (Unix ns, 0 for none) |
//	           traceID u64 | spanID u64 | client str | key str
//	str      = len u16 | bytes          (len <= maxWireString)
//	frame    = width u32 | height u32 | bytes u32 | pixels
//	response = status u8 | retryAfter i64 (ns) | errLen u32 | err |
//	           (StatusOK only) result
//	result   = width u32 | height u32 | pixels (2·width·height bytes) |
//	           compLen u32 | compressed |
//	           hits, steps, series, corrected, bitsA, bitsB,
//	           guardRejected, windowCBit, retries (9 × i64)
//
// A result image without pixels travels as 0×0 and decodes as nil. Every decoder bounds what it
// allocates by the caps below or by the geometry it was told to expect.

const (
	wireMagic   = "SPSV"
	wireVersion = 1
	// headerFixedSize is the header up to the client string.
	headerFixedSize = 4 + 1 + 3*4 + 8 + 2*8
	// frameHeadSize is a frame's width, height and byte count.
	frameHeadSize = 3 * 4
	// maxWireString caps the header's Client and Key.
	maxWireString = 1 << 10
	// maxWireErr caps a response's error message; longer messages are
	// truncated on encode.
	maxWireErr = 64 << 10
)

var le = binary.LittleEndian

// errWire marks a message that breaks the wire format: bad magic, an
// unsupported version, or a field past its cap. The stream cannot be
// resynchronized after one.
var errWire = errors.New("serve: malformed wire message")

// errFrameBudget marks a frame whose length prefix exceeds what the
// admitted header has left to receive; the server drops the connection
// without reading it.
var errFrameBudget = errors.New("serve: frame exceeds the request's byte budget")

// errFrameMismatch marks a frame whose geometry or length contradicts
// the header. Its pixels have been consumed, so the server can still
// answer StatusError before it drops the connection.
var errFrameMismatch = errors.New("serve: frame does not match header")

// checkStrings reports a Client or Key the header cannot carry.
func (h *header) checkStrings() error {
	if len(h.Client) > maxWireString || len(h.Key) > maxWireString {
		return fmt.Errorf("serve: client ID and key are capped at %d bytes", maxWireString)
	}
	return nil
}

// appendHeader encodes h, which must pass checkStrings.
func appendHeader(b []byte, h *header) []byte {
	b = append(b, wireMagic...)
	b = append(b, wireVersion)
	b = le.AppendUint32(b, uint32(h.Frames))
	b = le.AppendUint32(b, uint32(h.Width))
	b = le.AppendUint32(b, uint32(h.Height))
	var deadline int64
	if !h.Deadline.IsZero() {
		deadline = h.Deadline.UnixNano()
	}
	b = le.AppendUint64(b, uint64(deadline))
	b = le.AppendUint64(b, h.TraceID)
	b = le.AppendUint64(b, h.SpanID)
	b = appendString(b, h.Client)
	return appendString(b, h.Key)
}

// writeHeader encodes h into w's buffer (not flushed).
func writeHeader(w *bufio.Writer, h *header) error {
	_, err := w.Write(appendHeader(w.AvailableBuffer(), h))
	return err
}

// readHeader decodes one header. Errors wrapping errWire mean the peer
// does not speak this version of the protocol.
func readHeader(r *bufio.Reader) (header, error) {
	var h header
	var b [headerFixedSize]byte
	if _, err := io.ReadFull(r, b[:5]); err != nil {
		return h, err
	}
	if string(b[:4]) != wireMagic {
		return h, fmt.Errorf("%w: bad magic %q", errWire, b[:4])
	}
	if b[4] != wireVersion {
		return h, fmt.Errorf("%w: version %d, this server speaks %d", errWire, b[4], wireVersion)
	}
	if _, err := io.ReadFull(r, b[5:]); err != nil {
		return h, err
	}
	h.Frames = int(le.Uint32(b[5:]))
	h.Width = int(le.Uint32(b[9:]))
	h.Height = int(le.Uint32(b[13:]))
	if ns := int64(le.Uint64(b[17:])); ns != 0 {
		h.Deadline = time.Unix(0, ns)
	}
	h.TraceID = le.Uint64(b[25:])
	h.SpanID = le.Uint64(b[33:])
	var err error
	if h.Client, err = readString(r, 2, maxWireString); err != nil {
		return h, err
	}
	h.Key, err = readString(r, 2, maxWireString)
	return h, err
}

// writeFrame streams one frame through w (not flushed).
func writeFrame(w *bufio.Writer, img *dataset.Image) error {
	var b [frameHeadSize]byte
	le.PutUint32(b[0:], uint32(img.Width))
	le.PutUint32(b[4:], uint32(img.Height))
	le.PutUint32(b[8:], uint32(2*len(img.Pix)))
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	for pix := img.Pix; len(pix) > 0; {
		if w.Available() < 2 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		buf := w.AvailableBuffer()
		n := min(len(pix), cap(buf)/2)
		buf = buf[:2*n]
		dataset.PutPixelsLE(buf, pix[:n])
		if _, err := w.Write(buf); err != nil {
			return err
		}
		pix = pix[n:]
	}
	return nil
}

// frameHead is a frame's length prefix.
type frameHead struct {
	Width, Height, Bytes int
}

// readFrame reads one frame of h's baseline into dst, which holds one
// frame (2·Width·Height bytes); budget is how many payload bytes the
// admitted header has yet to receive. A length prefix past budget fails
// with errFrameBudget before any pixel is read; a frame contradicting h
// is consumed and fails with errFrameMismatch. It allocates nothing.
func readFrame(r *bufio.Reader, h header, budget int, dst []byte) (frameHead, error) {
	var b [frameHeadSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return frameHead{}, err
	}
	fh := frameHead{int(le.Uint32(b[0:])), int(le.Uint32(b[4:])), int(le.Uint32(b[8:]))}
	if fh.Bytes > budget {
		return fh, errFrameBudget
	}
	if fh.Width != h.Width || fh.Height != h.Height || fh.Bytes != len(dst) {
		if _, err := r.Discard(fh.Bytes); err != nil {
			return fh, err
		}
		return fh, errFrameMismatch
	}
	_, err := io.ReadFull(r, dst)
	return fh, err
}

// appendResponse encodes resp. It fails only when a StatusOK result
// image holds other than Width×Height pixels.
func appendResponse(b []byte, resp *response) ([]byte, error) {
	msg := resp.Err
	if len(msg) > maxWireErr {
		msg = msg[:maxWireErr]
	}
	var w, h int
	var pix []uint16
	if img := resp.Image; resp.Status == StatusOK && img != nil && len(img.Pix) > 0 {
		w, h, pix = img.Width, img.Height, img.Pix
		if w <= 0 || h <= 0 || len(pix) != w*h {
			return b, fmt.Errorf("serve: result image %dx%d holds %d pixels", w, h, len(pix))
		}
	}
	b = slices.Grow(b, 1+8+4+len(msg)+8+2*len(pix)+4+len(resp.Compressed)+9*8)
	b = append(b, byte(resp.Status))
	b = le.AppendUint64(b, uint64(resp.RetryAfter))
	b = le.AppendUint32(b, uint32(len(msg)))
	b = append(b, msg...)
	if resp.Status != StatusOK {
		return b, nil
	}
	b = le.AppendUint32(b, uint32(w))
	b = le.AppendUint32(b, uint32(h))
	n := len(b)
	b = b[:n+2*len(pix)]
	dataset.PutPixelsLE(b[n:], pix)
	b = le.AppendUint32(b, uint32(len(resp.Compressed)))
	b = append(b, resp.Compressed...)
	for _, v := range [...]int{
		resp.Stats.Hits, resp.Stats.Steps,
		resp.PreStats.Series, resp.PreStats.Corrected,
		resp.PreStats.BitsWindowA, resp.PreStats.BitsWindowB,
		resp.PreStats.GuardRejected, resp.PreStats.WindowCBit,
		resp.Retries,
	} {
		b = le.AppendUint64(b, uint64(v))
	}
	return b, nil
}

// maxCompressed caps a result's compressed payload for a frame of pix
// pixels: twice the Rice coder's worst case of about two bytes a pixel,
// plus slack for tiny frames.
func maxCompressed(pix int) int { return 4*pix + 64<<10 }

// readResponse decodes one response. maxPix is the pixel count of the
// request's frames: a result image may hold no more, each edge is
// capped at MaxEdge, and the compressed payload at maxCompressed.
func readResponse(r *bufio.Reader, maxPix int) (response, error) {
	var resp response
	var b [9 * 8]byte
	if _, err := io.ReadFull(r, b[:9]); err != nil {
		return resp, err
	}
	resp.Status = Status(b[0])
	resp.RetryAfter = time.Duration(le.Uint64(b[1:]))
	var err error
	if resp.Err, err = readString(r, 4, maxWireErr); err != nil || resp.Status != StatusOK {
		return resp, err
	}
	if _, err := io.ReadFull(r, b[:8]); err != nil {
		return resp, err
	}
	w, h := int(le.Uint32(b[0:])), int(le.Uint32(b[4:]))
	switch {
	case w == 0 && h == 0:
	case w <= 0 || h <= 0 || w > MaxEdge || h > MaxEdge || w*h > maxPix:
		return resp, fmt.Errorf("%w: %dx%d result for %d-pixel frames", errWire, w, h, maxPix)
	default:
		resp.Image = dataset.NewImage(w, h)
		if err := readPixels(r, resp.Image.Pix); err != nil {
			return resp, err
		}
	}
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return resp, err
	}
	if n := int(le.Uint32(b[:4])); n > 0 {
		if n > maxCompressed(maxPix) {
			return resp, fmt.Errorf("%w: %d compressed bytes for %d-pixel frames", errWire, n, maxPix)
		}
		resp.Compressed = make([]byte, n)
		if _, err := io.ReadFull(r, resp.Compressed); err != nil {
			return resp, err
		}
	}
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return resp, err
	}
	v := func(i int) int { return int(int64(le.Uint64(b[8*i:]))) }
	resp.Stats.Hits, resp.Stats.Steps = v(0), v(1)
	resp.PreStats.Series, resp.PreStats.Corrected = v(2), v(3)
	resp.PreStats.BitsWindowA, resp.PreStats.BitsWindowB = v(4), v(5)
	resp.PreStats.GuardRejected, resp.PreStats.WindowCBit = v(6), v(7)
	resp.Retries = v(8)
	return resp, nil
}

// readPixels decodes len(pix) little-endian pixels straight out of r's
// buffer.
func readPixels(r *bufio.Reader, pix []uint16) error {
	for len(pix) > 0 {
		n := min(len(pix), r.Size()/2)
		buf, err := r.Peek(2 * n)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		dataset.PixelsFromLE(pix[:n], buf)
		r.Discard(2 * n) //nolint:errcheck // the bytes were just peeked
		pix = pix[n:]
	}
	return nil
}

// appendString encodes s with a u16 length; callers enforce the cap.
func appendString(b []byte, s string) []byte {
	b = le.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// readString decodes a string with a lenBytes-wide (2 or 4) length
// prefix, refusing lengths past limit before allocating.
func readString(r *bufio.Reader, lenBytes, limit int) (string, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:lenBytes]); err != nil {
		return "", err
	}
	n := int(le.Uint32(b[:]))
	if n > limit {
		return "", fmt.Errorf("%w: %d-byte string, cap is %d", errWire, n, limit)
	}
	if n == 0 {
		return "", nil
	}
	s := make([]byte, n)
	if _, err := io.ReadFull(r, s); err != nil {
		return "", err
	}
	return string(s), nil
}
