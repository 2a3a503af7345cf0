package store

// The write-ahead ingest log: admitted baselines are appended as
// size-capped, self-describing, hash-verified chunk records before the
// serving tier batches them onto the pool, so a daemon that crashes with
// admitted-but-unserved requests can replay them on restart instead of
// dropping them — the checkpoint/replay recovery idiom applied to the
// ingest path.
//
// On-disk format (one append-only file, dir/ingest.wal):
//
//	record  = magic "SPW1" | type u8 | bodyLen u32 BE | body | sha256(body)
//	ENTRY   = seq u64 | digest [32] | frames u32 | width u32 | height u32 |
//	          chunks u32 | clientLen u16 | client | keyLen u16 | key
//	CHUNK   = seq u64 | index u32 | payload (pixels, uint16 LE, row-major,
//	          frames concatenated; at most ChunkBytes per record)
//	COMMIT  = seq u64
//
// Every record carries its own integrity hash, so replay never trusts a
// byte the crash may have torn: a record whose hash fails verification is
// dropped (and its entry with it); a short read at the tail is the normal
// artifact of dying mid-append and simply ends the scan. An entry is
// replayable iff its ENTRY and every CHUNK landed intact and no COMMIT
// for its sequence number follows.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"spaceproc/internal/dataset"
)

// WAL format constants.
const (
	// DefaultWALChunkBytes caps the payload bytes per CHUNK record.
	DefaultWALChunkBytes = 256 << 10
	// walFileName is the log file inside the WAL directory.
	walFileName = "ingest.wal"
	// walMagic opens every record.
	walMagic = "SPW1"
	// walHeaderSize is magic + type + bodyLen.
	walHeaderSize = 4 + 1 + 4
	// maxWALBody bounds one record body so a corrupted length field
	// cannot ask the scanner for an absurd allocation.
	maxWALBody = 64 << 20
)

// Record types.
const (
	recEntry  byte = 1
	recChunk  byte = 2
	recCommit byte = 3
)

// Digest is the content address of a baseline: SHA-256 over its geometry
// and pixel bytes. Two stacks share a Digest exactly when they are
// bit-identical, which is what lets repeat uploads of the same baseline
// skip preprocessing entirely.
type Digest [sha256.Size]byte

// String renders the digest in hex for logs.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:8]) }

// StackDigest content-addresses a stack: SHA-256 over frame count,
// geometry, and every pixel in frame order.
func StackDigest(s *dataset.Stack) Digest {
	h := sha256.New()
	var dims [12]byte
	binary.LittleEndian.PutUint32(dims[0:], uint32(s.Len()))
	binary.LittleEndian.PutUint32(dims[4:], uint32(s.Width()))
	binary.LittleEndian.PutUint32(dims[8:], uint32(s.Height()))
	h.Write(dims[:])
	buf := make([]byte, 0, 4096)
	for _, f := range s.Frames {
		buf = buf[:0]
		for _, p := range f.Pix {
			buf = binary.LittleEndian.AppendUint16(buf, p)
		}
		h.Write(buf)
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// Payload is a baseline in the byte layout the serve wire, the digest
// and the log's CHUNK records share: every pixel as a little-endian
// uint16, row-major, frames concatenated. Carrying the received bytes
// lets the ingest path digest and log a baseline without re-encoding it.
type Payload struct {
	Frames, Width, Height int
	// Pix holds Frames×Width×Height×2 bytes.
	Pix []byte
}

// encodeStack lays a stack out as a Payload. Every frame must share the
// first frame's geometry.
func encodeStack(s *dataset.Stack) Payload {
	p := Payload{Frames: s.Len(), Width: s.Width(), Height: s.Height()}
	n := 0
	for _, fr := range s.Frames {
		n += len(fr.Pix)
	}
	p.Pix = make([]byte, 2*n)
	off := 0
	for _, fr := range s.Frames {
		dataset.PutPixelsLE(p.Pix[off:], fr.Pix)
		off += 2 * len(fr.Pix)
	}
	return p
}

// Stack decodes the payload, which must hold exactly its geometry's
// bytes, into a fresh stack. The frames share one pixel array, each
// capped to its own range.
func (p Payload) Stack() *dataset.Stack {
	n := p.Width * p.Height
	pix := make([]uint16, p.Frames*n)
	dataset.PixelsFromLE(pix, p.Pix)
	s := &dataset.Stack{Frames: make([]*dataset.Image, p.Frames)}
	for f := range s.Frames {
		s.Frames[f] = &dataset.Image{Width: p.Width, Height: p.Height,
			Pix: pix[f*n : (f+1)*n : (f+1)*n]}
	}
	return s
}

// Digest content-addresses the payload exactly as StackDigest addresses
// the stack it encodes, hashing the bytes as they are.
func (p Payload) Digest() Digest {
	h := sha256.New()
	var dims [12]byte
	binary.LittleEndian.PutUint32(dims[0:], uint32(p.Frames))
	binary.LittleEndian.PutUint32(dims[4:], uint32(p.Width))
	binary.LittleEndian.PutUint32(dims[8:], uint32(p.Height))
	h.Write(dims[:])
	h.Write(p.Pix)
	var d Digest
	h.Sum(d[:0])
	return d
}

// WALOptions tunes a WAL.
type WALOptions struct {
	// ChunkBytes caps the payload per CHUNK record; 0 selects
	// DefaultWALChunkBytes.
	ChunkBytes int
	// Sync fsyncs the log after every append and commit, so an entry
	// acknowledged to the ingest path survives power loss, not just a
	// process crash. Off, the OS page cache decides.
	Sync bool
}

// WALEntry is one replayable admitted-but-unserved request recovered
// from the log.
type WALEntry struct {
	Seq    uint64
	Client string
	Key    string
	Digest Digest
	Stack  *dataset.Stack
}

// WALReport summarizes one recovery scan.
type WALReport struct {
	// Entries is the number of intact ENTRY records seen.
	Entries int
	// Committed is how many of them had COMMIT records.
	Committed int
	// Corrupt counts records dropped for an integrity-hash mismatch,
	// an impossible length, or an entry whose chunks never all arrived.
	Corrupt int
	// Truncated is true when the scan ended at a torn record — the
	// normal artifact of a crash mid-append.
	Truncated bool
}

// WAL is the write-ahead ingest log. All methods are safe for concurrent
// use.
type WAL struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	opt     WALOptions
	nextSeq uint64
	// pending maps each appended, not yet committed entry to its records
	// exactly as they sit in the log (ENTRY plus CHUNKs), so compaction
	// rewrites the log from memory instead of re-reading it.
	pending map[uint64][]byte
	// commitsSinceCompact triggers background-free compaction: once
	// enough committed entries accumulate the log is rewritten with only
	// the pending ones, bounding growth on a long-running daemon.
	commitsSinceCompact int
	closed              bool
}

// compactEvery bounds how many committed entries may accumulate in the
// log before Commit rewrites it down to the pending set.
const compactEvery = 128

// OpenWAL opens (creating if needed) the ingest log in dir, scans it for
// admitted-but-unserved entries, verifies every record hash, compacts
// the file down to the surviving pending entries, and returns them in
// append (sequence) order — the order a replay must preserve.
func OpenWAL(dir string, opt WALOptions) (*WAL, []*WALEntry, *WALReport, error) {
	if opt.ChunkBytes <= 0 {
		opt.ChunkBytes = DefaultWALChunkBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("store: wal: %w", err)
	}
	path := filepath.Join(dir, walFileName)
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, fmt.Errorf("store: wal: %w", err)
	}
	scanned, rep, nextSeq := scanWAL(raw)

	w := &WAL{
		path:    path,
		opt:     opt,
		nextSeq: nextSeq,
		pending: make(map[uint64][]byte, len(scanned)),
	}
	entries := make([]*WALEntry, len(scanned))
	for i, pe := range scanned {
		p := Payload{Frames: pe.frames, Width: pe.width, Height: pe.height, Pix: pe.buf}
		pe.entry.Stack = p.Stack()
		entries[i] = pe.entry
		w.pending[pe.entry.Seq] = encodeEntry(pe.entry, p, opt.ChunkBytes)
	}
	// Rewrite the log with only the pending entries: committed and torn
	// records do not survive a restart, so the file cannot grow without
	// bound across crash/recover cycles.
	if err := w.rewrite(); err != nil {
		return nil, nil, nil, err
	}
	return w, entries, rep, nil
}

// rewrite replaces the log file with exactly the pending entries'
// records, in sequence order, and reopens the append handle. Callers
// hold w.mu (or own w exclusively).
func (w *WAL) rewrite() error {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	seqs := make([]uint64, 0, len(w.pending))
	for seq := range w.pending {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	for _, seq := range seqs {
		if _, err := f.Write(w.pending[seq]); err != nil {
			f.Close()
			return fmt.Errorf("store: wal: %w", err)
		}
	}
	if w.opt.Sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: wal: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	w.f, err = os.OpenFile(w.path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	w.commitsSinceCompact = 0
	return nil
}

// Append logs one admitted baseline and returns its sequence number. The
// entry is replayable until Commit marks it served.
func (w *WAL) Append(client, key string, digest Digest, s *dataset.Stack) (uint64, error) {
	return w.AppendPayload(client, key, digest, encodeStack(s))
}

// AppendPayload is Append for a baseline already in its byte layout (the
// bytes a serve request carried). The WAL keeps its own copy of p.Pix
// while the entry is pending.
func (w *WAL) AppendPayload(client, key string, digest Digest, p Payload) (uint64, error) {
	if p.Frames < 0 || p.Width < 0 || p.Height < 0 || len(p.Pix) != p.Frames*p.Width*p.Height*2 {
		return 0, fmt.Errorf("store: wal: payload of %d bytes does not match %dx%dx%d",
			len(p.Pix), p.Frames, p.Width, p.Height)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errors.New("store: wal closed")
	}
	seq := w.nextSeq
	w.nextSeq++
	recs := encodeEntry(&WALEntry{Seq: seq, Client: client, Key: key, Digest: digest}, p, w.opt.ChunkBytes)
	if err := w.write(recs); err != nil {
		return 0, err
	}
	w.pending[seq] = recs
	return seq, nil
}

// write appends buf to the log in one call and fsyncs it under
// WALOptions.Sync. Callers hold w.mu.
func (w *WAL) write(buf []byte) error {
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	if w.opt.Sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: wal: %w", err)
		}
	}
	return nil
}

// Commit marks the entry served: it will not replay after a restart.
// The commit record is fsynced under WALOptions.Sync, so "served" is as
// durable as "admitted".
func (w *WAL) Commit(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: wal closed")
	}
	var body [8]byte
	binary.BigEndian.PutUint64(body[:], seq)
	if err := w.write(appendRecord(make([]byte, 0, walHeaderSize+8+sha256.Size), recCommit, body[:])); err != nil {
		return err
	}
	delete(w.pending, seq)
	w.commitsSinceCompact++
	if w.commitsSinceCompact >= compactEvery {
		return w.rewrite()
	}
	return nil
}

// Pending reports how many appended entries have not been committed.
func (w *WAL) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// Compact rewrites the log down to the pending entries, dropping every
// committed record. Commit triggers it automatically every compactEvery
// commits; call it directly to reclaim space eagerly. The pending
// entries' records come from memory; the old log is not read.
func (w *WAL) Compact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: wal closed")
	}
	return w.rewrite()
}

// Close releases the file handle. Idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f != nil {
		err := w.f.Close()
		w.f = nil
		return err
	}
	return nil
}

// encodeEntry lays out one ENTRY record and its size-capped CHUNK
// records for e's fields (its Stack is unused) and payload p, ready for
// a single write.
func encodeEntry(e *WALEntry, p Payload, chunkBytes int) []byte {
	chunks := (len(p.Pix) + chunkBytes - 1) / chunkBytes
	if chunks == 0 {
		chunks = 1 // an empty payload still writes one (empty) chunk
	}
	const perRecord = walHeaderSize + sha256.Size
	bodyLen := 8 + sha256.Size + 16 + 4 + len(e.Client) + len(e.Key)
	buf := make([]byte, 0, perRecord+bodyLen+chunks*(perRecord+12)+len(p.Pix))

	body := make([]byte, 0, bodyLen)
	body = binary.BigEndian.AppendUint64(body, e.Seq)
	body = append(body, e.Digest[:]...)
	body = binary.BigEndian.AppendUint32(body, uint32(p.Frames))
	body = binary.BigEndian.AppendUint32(body, uint32(p.Width))
	body = binary.BigEndian.AppendUint32(body, uint32(p.Height))
	body = binary.BigEndian.AppendUint32(body, uint32(chunks))
	body = binary.BigEndian.AppendUint16(body, uint16(len(e.Client)))
	body = append(body, e.Client...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(e.Key)))
	body = append(body, e.Key...)
	buf = appendRecord(buf, recEntry, body)

	for i := 0; i < chunks; i++ {
		lo := i * chunkBytes
		hi := min(lo+chunkBytes, len(p.Pix))
		// Build the CHUNK body in place: its hash covers bytes already
		// in buf, so the payload is copied exactly once.
		start := len(buf)
		buf = append(buf, walMagic...)
		buf = append(buf, recChunk)
		buf = binary.BigEndian.AppendUint32(buf, uint32(12+hi-lo))
		buf = binary.BigEndian.AppendUint64(buf, e.Seq)
		buf = binary.BigEndian.AppendUint32(buf, uint32(i))
		buf = append(buf, p.Pix[lo:hi]...)
		sum := sha256.Sum256(buf[start+walHeaderSize:])
		buf = append(buf, sum[:]...)
	}
	return buf
}

// appendRecord frames one record: magic | type | len | body | sha256(body).
func appendRecord(buf []byte, typ byte, body []byte) []byte {
	buf = append(buf, walMagic...)
	buf = append(buf, typ)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	sum := sha256.Sum256(body)
	return append(buf, sum[:]...)
}

// pendingEntry accumulates one entry's records during a scan.
type pendingEntry struct {
	entry  *WALEntry
	frames int
	width  int
	height int
	chunks int
	got    int
	buf    []byte
}

// scanWAL walks the log, verifying every record, and returns the intact
// uncommitted entries (with their payload bytes, Stack not yet decoded)
// in sequence order plus the next free sequence number.
func scanWAL(raw []byte) ([]*pendingEntry, *WALReport, uint64) {
	rep := &WALReport{}
	open := make(map[uint64]*pendingEntry)
	committed := make(map[uint64]bool)
	var nextSeq uint64

	off := 0
	for off < len(raw) {
		if len(raw)-off < walHeaderSize {
			rep.Truncated = true
			break
		}
		if string(raw[off:off+4]) != walMagic {
			// The framing itself is untrustworthy past this point.
			rep.Truncated = true
			break
		}
		typ := raw[off+4]
		n := int(binary.BigEndian.Uint32(raw[off+5 : off+9]))
		if n > maxWALBody {
			rep.Truncated = true
			break
		}
		if len(raw)-off-walHeaderSize < n+sha256.Size {
			rep.Truncated = true
			break
		}
		body := raw[off+walHeaderSize : off+walHeaderSize+n]
		sum := raw[off+walHeaderSize+n : off+walHeaderSize+n+sha256.Size]
		off += walHeaderSize + n + sha256.Size
		if sha256.Sum256(body) != [sha256.Size]byte(sum) {
			// The record is torn but the framing held: drop it and keep
			// scanning. Whatever entry it belonged to loses a piece and
			// will fail completeness below.
			rep.Corrupt++
			continue
		}
		switch typ {
		case recEntry:
			e, ok := decodeEntry(body)
			if !ok {
				rep.Corrupt++
				continue
			}
			rep.Entries++
			if e.entry.Seq >= nextSeq {
				nextSeq = e.entry.Seq + 1
			}
			open[e.entry.Seq] = e
		case recChunk:
			if len(body) < 12 {
				rep.Corrupt++
				continue
			}
			seq := binary.BigEndian.Uint64(body[0:8])
			idx := int(binary.BigEndian.Uint32(body[8:12]))
			pe := open[seq]
			if pe == nil || idx != pe.got {
				// A chunk with no entry, or out of order: the entry is
				// unreconstructable.
				if pe != nil {
					delete(open, seq)
					rep.Corrupt++
				}
				continue
			}
			pe.buf = append(pe.buf, body[12:]...)
			pe.got++
		case recCommit:
			if len(body) != 8 {
				rep.Corrupt++
				continue
			}
			seq := binary.BigEndian.Uint64(body)
			if open[seq] != nil {
				rep.Committed++
			}
			committed[seq] = true
			delete(open, seq)
		default:
			rep.Corrupt++
		}
	}

	var out []*pendingEntry
	for seq, pe := range open {
		if committed[seq] {
			continue
		}
		if pe.got != pe.chunks || len(pe.buf) != pe.frames*pe.width*pe.height*2 {
			rep.Corrupt++
			continue
		}
		out = append(out, pe)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].entry.Seq < out[j].entry.Seq })
	return out, rep, nextSeq
}

// decodeEntry parses an ENTRY body.
func decodeEntry(body []byte) (*pendingEntry, bool) {
	if len(body) < 8+sha256.Size+16+2 {
		return nil, false
	}
	e := &WALEntry{Seq: binary.BigEndian.Uint64(body[0:8])}
	copy(e.Digest[:], body[8:8+sha256.Size])
	p := body[8+sha256.Size:]
	frames := int(binary.BigEndian.Uint32(p[0:4]))
	width := int(binary.BigEndian.Uint32(p[4:8]))
	height := int(binary.BigEndian.Uint32(p[8:12]))
	chunks := int(binary.BigEndian.Uint32(p[12:16]))
	p = p[16:]
	if len(p) < 2 {
		return nil, false
	}
	cl := int(binary.BigEndian.Uint16(p[0:2]))
	p = p[2:]
	if len(p) < cl+2 {
		return nil, false
	}
	e.Client = string(p[:cl])
	p = p[cl:]
	kl := int(binary.BigEndian.Uint16(p[0:2]))
	p = p[2:]
	if len(p) != kl {
		return nil, false
	}
	e.Key = string(p)
	if frames < 0 || width < 0 || height < 0 || chunks <= 0 {
		return nil, false
	}
	return &pendingEntry{entry: e, frames: frames, width: width, height: height, chunks: chunks}, true
}
