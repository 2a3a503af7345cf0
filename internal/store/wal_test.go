package store

import (
	"os"
	"path/filepath"
	"testing"

	"spaceproc/internal/dataset"
)

// walStack builds a small deterministic baseline whose pixels encode the
// tag, so replayed stacks are distinguishable.
func walStack(tag, frames, w, h int) *dataset.Stack {
	s := dataset.NewStack(frames, w, h)
	for f, fr := range s.Frames {
		for i := range fr.Pix {
			fr.Pix[i] = uint16((tag*1031 + f*97 + i) % 4096)
		}
	}
	return s
}

func samePixels(t *testing.T, a, b *dataset.Stack) {
	t.Helper()
	if a.Len() != b.Len() || a.Width() != b.Width() || a.Height() != b.Height() {
		t.Fatalf("geometry %dx%dx%d vs %dx%dx%d",
			a.Len(), a.Width(), a.Height(), b.Len(), b.Width(), b.Height())
	}
	for f := range a.Frames {
		for i := range a.Frames[f].Pix {
			if a.Frames[f].Pix[i] != b.Frames[f].Pix[i] {
				t.Fatalf("pixel mismatch frame %d offset %d", f, i)
			}
		}
	}
}

func TestStackDigest(t *testing.T) {
	a := walStack(1, 4, 8, 8)
	b := walStack(1, 4, 8, 8)
	if StackDigest(a) != StackDigest(b) {
		t.Fatal("identical stacks must share a digest")
	}
	b.Frames[2].Pix[17]++
	if StackDigest(a) == StackDigest(b) {
		t.Fatal("one flipped pixel must change the digest")
	}
	// Geometry is part of the address: same pixel bytes, different shape.
	c := walStack(1, 4, 8, 8)
	d := &dataset.Stack{}
	for _, fr := range c.Frames {
		d.Frames = append(d.Frames, &dataset.Image{Width: 16, Height: 4, Pix: fr.Pix})
	}
	if StackDigest(c) == StackDigest(d) {
		t.Fatal("reshaped stack must change the digest")
	}
}

func TestWALAppendReplayCommit(t *testing.T) {
	dir := t.TempDir()
	w, entries, rep, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || rep.Entries != 0 {
		t.Fatalf("fresh wal not empty: %d entries, report %+v", len(entries), rep)
	}

	s1, s2, s3 := walStack(1, 3, 8, 4), walStack(2, 3, 8, 4), walStack(3, 3, 8, 4)
	seq1, err := w.Append("alice", "k1", StackDigest(s1), s1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append("bob", "k2", StackDigest(s2), s2); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append("carol", "", StackDigest(s3), s3); err != nil {
		t.Fatal(err)
	}
	if w.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", w.Pending())
	}
	if err := w.Commit(seq1); err != nil {
		t.Fatal(err)
	}
	if w.Pending() != 2 {
		t.Fatalf("pending = %d after commit, want 2", w.Pending())
	}
	w.Close()

	// Recovery: the two uncommitted entries come back, in append order,
	// bit-identical.
	w2, entries, rep, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rep.Entries != 3 || rep.Committed != 1 || rep.Corrupt != 0 || rep.Truncated {
		t.Fatalf("recovery report %+v", rep)
	}
	if len(entries) != 2 {
		t.Fatalf("replayable = %d, want 2", len(entries))
	}
	if entries[0].Seq >= entries[1].Seq {
		t.Fatal("entries not in sequence order")
	}
	if entries[0].Client != "bob" || entries[0].Key != "k2" {
		t.Fatalf("entry 0 = %q/%q", entries[0].Client, entries[0].Key)
	}
	if entries[1].Client != "carol" || entries[1].Key != "" {
		t.Fatalf("entry 1 = %q/%q", entries[1].Client, entries[1].Key)
	}
	samePixels(t, s2, entries[0].Stack)
	samePixels(t, s3, entries[1].Stack)
	if entries[0].Digest != StackDigest(s2) {
		t.Fatal("digest not preserved")
	}

	// New appends continue the sequence past everything seen.
	seqNew, err := w2.Append("dave", "", StackDigest(s1), s1)
	if err != nil {
		t.Fatal(err)
	}
	if seqNew <= entries[1].Seq {
		t.Fatalf("new seq %d not past recovered %d", seqNew, entries[1].Seq)
	}
}

func TestWALChunkingLargePayload(t *testing.T) {
	dir := t.TempDir()
	// 3 frames x 64x64 x 2 bytes = 24576 payload bytes; a 1 KiB cap
	// forces 24 chunks.
	w, _, _, err := OpenWAL(dir, WALOptions{ChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s := walStack(9, 3, 64, 64)
	if _, err := w.Append("chunky", "", StackDigest(s), s); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, entries, rep, err := OpenWAL(dir, WALOptions{ChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(entries) != 1 || rep.Corrupt != 0 {
		t.Fatalf("chunked entry did not survive: %d entries, report %+v", len(entries), rep)
	}
	samePixels(t, s, entries[0].Stack)
}

func TestWALTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := walStack(1, 2, 8, 8), walStack(2, 2, 8, 8)
	if _, err := w.Append("a", "", StackDigest(s1), s1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append("b", "", StackDigest(s2), s2); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Tear the tail mid-record, as a crash mid-append would.
	path := filepath.Join(dir, "ingest.wal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-40], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, entries, rep, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !rep.Truncated {
		t.Fatalf("report %+v should flag truncation", rep)
	}
	if len(entries) != 1 || entries[0].Client != "a" {
		t.Fatalf("intact prefix should survive: %d entries", len(entries))
	}
	samePixels(t, s1, entries[0].Stack)
}

func TestWALCorruptChunkDropsEntry(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := walStack(1, 2, 8, 8), walStack(2, 2, 8, 8)
	if _, err := w.Append("victim", "", StackDigest(s1), s1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append("survivor", "", StackDigest(s2), s2); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Flip one payload byte inside the first entry's chunk; its record
	// hash must catch it and only that entry is lost.
	path := filepath.Join(dir, "ingest.wal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Entry 1 layout: ENTRY record, then one CHUNK record whose payload
	// starts after the chunk header (magic+type+len, seq+index).
	entryBody := 8 + 32 + 16 + 2 + len("victim") + 2
	chunkPayload := walHeaderSize + entryBody + 32 + walHeaderSize + 12
	raw[chunkPayload+5] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, entries, rep, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rep.Corrupt == 0 {
		t.Fatalf("report %+v should count the torn record", rep)
	}
	if len(entries) != 1 || entries[0].Client != "survivor" {
		t.Fatalf("want only the survivor, got %d entries", len(entries))
	}
	samePixels(t, s2, entries[0].Stack)
}

func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := walStack(4, 2, 16, 16)
	var seqs []uint64
	for i := 0; i < 8; i++ {
		seq, err := w.Append("c", "", StackDigest(s), s)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	path := filepath.Join(dir, "ingest.wal")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		if err := w.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != 0 {
		t.Fatalf("fully-committed log should compact to empty, got %d bytes (was %d)",
			after.Size(), before.Size())
	}
	// The WAL stays writable after compaction.
	if _, err := w.Append("c", "", StackDigest(s), s); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, entries, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(entries) != 1 {
		t.Fatalf("post-compaction append lost: %d entries", len(entries))
	}
}

func TestWALSyncOption(t *testing.T) {
	// Sync mode exercises the fsync paths; correctness is the same.
	dir := t.TempDir()
	w, _, _, err := OpenWAL(dir, WALOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	s := walStack(5, 2, 8, 8)
	seq, err := w.Append("s", "", StackDigest(s), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(seq); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := w.Close(); err != nil {
		t.Fatalf("Close not idempotent: %v", err)
	}
}

func TestWALClosedErrors(t *testing.T) {
	w, _, _, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	s := walStack(1, 1, 2, 2)
	if _, err := w.Append("x", "", StackDigest(s), s); err == nil {
		t.Fatal("append on closed wal should error")
	}
	if err := w.Commit(0); err == nil {
		t.Fatal("commit on closed wal should error")
	}
}

func TestPayloadMatchesStack(t *testing.T) {
	for _, s := range []*dataset.Stack{walStack(7, 3, 5, 4), walStack(8, 1, 1, 1), {}} {
		p := encodeStack(s)
		if len(p.Pix) != s.Len()*s.Width()*s.Height()*2 {
			t.Fatalf("payload is %d bytes for %dx%dx%d", len(p.Pix), s.Len(), s.Width(), s.Height())
		}
		// StackDigest is the oracle: hashing the received bytes must
		// address the baseline exactly as hashing the decoded stack does.
		if p.Digest() != StackDigest(s) {
			t.Fatalf("payload digest %v != stack digest %v", p.Digest(), StackDigest(s))
		}
		if s.Len() > 0 {
			samePixels(t, s, p.Stack())
		}
	}
}

func TestWALAppendPayloadRejectsShortPayload(t *testing.T) {
	w, _, _, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	p := Payload{Frames: 2, Width: 4, Height: 4, Pix: make([]byte, 63)}
	if _, err := w.AppendPayload("c", "", p.Digest(), p); err == nil {
		t.Fatal("a payload shorter than its geometry must be refused")
	}
	if w.Pending() != 0 {
		t.Fatalf("pending = %d after a refused append", w.Pending())
	}
}

// TestWALCompactFromMemory proves compaction rewrites the pending
// entries from the WAL's own copies: the log on disk is clobbered before
// Compact, and the reopened log still replays every pending entry
// bit-identically — including entries that were themselves recovered by
// OpenWAL.
func TestWALCompactFromMemory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ingest.wal")
	opt := WALOptions{ChunkBytes: 100} // several chunks per entry
	w, _, _, err := OpenWAL(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		seq         uint64
		client, key string
		stack       *dataset.Stack
	}
	var keep []want
	for i := 0; i < 6; i++ {
		s := walStack(10+i, 3, 6, 5)
		client, key := string(rune('a'+i)), ""
		if i%2 == 1 {
			key = "key" + client
		}
		seq, err := w.Append(client, key, StackDigest(s), s)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := w.Commit(seq); err != nil {
				t.Fatal(err)
			}
			continue
		}
		keep = append(keep, want{seq, client, key, s})
	}
	check := func(entries []*WALEntry) {
		t.Helper()
		if len(entries) != len(keep) {
			t.Fatalf("replayed %d entries, want %d", len(entries), len(keep))
		}
		for i, e := range entries {
			k := keep[i]
			if e.Seq != k.seq || e.Client != k.client || e.Key != k.key || e.Digest != StackDigest(k.stack) {
				t.Fatalf("entry %d = seq %d %q/%q %v, want seq %d %q/%q %v",
					i, e.Seq, e.Client, e.Key, e.Digest, k.seq, k.client, k.key, StackDigest(k.stack))
			}
			samePixels(t, k.stack, e.Stack)
		}
	}

	if err := os.WriteFile(path, []byte("not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, entries, rep, err := OpenWAL(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed != 0 || rep.Corrupt != 0 || rep.Truncated {
		t.Fatalf("compacted log report %+v, want only pending entries", rep)
	}
	check(entries)

	// Recovered entries are pending too: clobber and compact again.
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w2.Compact(); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, entries, _, err := OpenWAL(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	check(entries)
}

// BenchmarkWALAppendCommit is the store rung of the serve ladder: one
// 128×128×16 baseline appended and committed, as the durable ingest path
// does for every fresh upload. Every 128th commit compacts the log.
func BenchmarkWALAppendCommit(b *testing.B) {
	s := walStack(1, 16, 128, 128)
	dig := StackDigest(s)
	for _, sync := range []bool{false, true} {
		name := "sync=off"
		if sync {
			name = "sync=on"
		}
		b.Run(name, func(b *testing.B) {
			w, _, _, err := OpenWAL(b.TempDir(), WALOptions{Sync: sync})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(s.Len() * s.Width() * s.Height() * 2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq, err := w.Append("bench", "", dig, s)
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Commit(seq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
