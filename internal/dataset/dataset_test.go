package dataset

import (
	"errors"
	"testing"
	"testing/quick"

	"spaceproc/internal/rng"
)

func TestImageAtSet(t *testing.T) {
	im := NewImage(4, 3)
	im.Set(2, 1, 0xBEEF)
	if got := im.At(2, 1); got != 0xBEEF {
		t.Fatalf("At(2,1) = %#x, want 0xBEEF", got)
	}
	if got := im.At(1, 2); got != 0 {
		t.Fatalf("At(1,2) = %#x, want 0", got)
	}
	if im.Pix[1*4+2] != 0xBEEF {
		t.Fatal("row-major layout violated")
	}
}

func TestImageClone(t *testing.T) {
	im := NewImage(2, 2)
	im.Set(0, 0, 7)
	c := im.Clone()
	c.Set(0, 0, 9)
	if im.At(0, 0) != 7 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestSeriesClone(t *testing.T) {
	s := Series{1, 2, 3}
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Fatal("Series.Clone shares storage")
	}
}

func TestStackSeriesRoundTrip(t *testing.T) {
	s := NewStack(5, 3, 2)
	ser := Series{10, 20, 30, 40, 50}
	s.SetSeriesAt(2, 1, ser)
	got := s.SeriesAt(2, 1)
	for i := range ser {
		if got[i] != ser[i] {
			t.Fatalf("series mismatch at %d: %d != %d", i, got[i], ser[i])
		}
	}
	if s.Frames[3].At(2, 1) != 40 {
		t.Fatal("frame storage not updated")
	}
}

func TestStackSetSeriesLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetSeriesAt with wrong length did not panic")
		}
	}()
	NewStack(4, 2, 2).SetSeriesAt(0, 0, Series{1, 2})
}

func TestStackGeometry(t *testing.T) {
	s := NewStack(7, 5, 4)
	if s.Len() != 7 || s.Width() != 5 || s.Height() != 4 {
		t.Fatalf("geometry = (%d,%d,%d)", s.Len(), s.Width(), s.Height())
	}
	var empty Stack
	if empty.Width() != 0 || empty.Height() != 0 || empty.Len() != 0 {
		t.Fatal("empty stack geometry should be zero")
	}
}

func TestCubeIndexing(t *testing.T) {
	c := NewCube(4, 3, 2)
	c.Set(1, 2, 1, 3.5)
	if got := c.At(1, 2, 1); got != 3.5 {
		t.Fatalf("At = %v, want 3.5", got)
	}
	band := c.Band(1)
	if band[2*4+1] != 3.5 {
		t.Fatal("Band slice layout mismatch")
	}
	band[0] = 9
	if c.At(0, 0, 1) != 9 {
		t.Fatal("Band must be backed by cube storage")
	}
}

func TestCubeClone(t *testing.T) {
	c := NewCube(2, 2, 2)
	c.Set(0, 0, 0, 1)
	d := c.Clone()
	d.Set(0, 0, 0, 2)
	if c.At(0, 0, 0) != 1 {
		t.Fatal("Cube.Clone shares storage")
	}
}

func randomStack(t *testing.T, n, w, h int, seed uint64) *Stack {
	t.Helper()
	src := rng.New(seed)
	s := NewStack(n, w, h)
	for _, f := range s.Frames {
		for i := range f.Pix {
			f.Pix[i] = uint16(src.Uint32())
		}
	}
	return s
}

func TestFragmentReassembleRoundTrip(t *testing.T) {
	s := randomStack(t, 4, 256, 256, 1)
	tiles, err := Fragment(s, TileSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiles) != 4 {
		t.Fatalf("got %d tiles, want 4", len(tiles))
	}
	back, err := Reassemble(tiles, 4, 256, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Frames {
		for j := range s.Frames[i].Pix {
			if s.Frames[i].Pix[j] != back.Frames[i].Pix[j] {
				t.Fatalf("pixel mismatch frame %d offset %d", i, j)
			}
		}
	}
}

func TestFragmentTileContents(t *testing.T) {
	s := NewStack(1, 4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			s.Frames[0].Set(x, y, uint16(y*4+x))
		}
	}
	tiles, err := Fragment(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Tile 3 is the bottom-right 2x2 block.
	tr := tiles[3]
	if tr.X0 != 2 || tr.Y0 != 2 {
		t.Fatalf("tile 3 origin = (%d,%d)", tr.X0, tr.Y0)
	}
	want := []uint16{10, 11, 14, 15}
	for i, w := range want {
		if got := tr.Stack.Frames[0].Pix[i]; got != w {
			t.Fatalf("tile 3 pixel %d = %d, want %d", i, got, w)
		}
	}
}

func TestFragmentBadGeometry(t *testing.T) {
	s := NewStack(1, 100, 100)
	if _, err := Fragment(s, 3); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("err = %v, want ErrBadGeometry", err)
	}
	if _, err := Fragment(s, 0); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("err = %v, want ErrBadGeometry", err)
	}
}

func TestReassembleOutOfOrder(t *testing.T) {
	s := randomStack(t, 2, 256, 128, 2)
	tiles, err := Fragment(s, TileSize)
	if err != nil {
		t.Fatal(err)
	}
	tiles[0], tiles[1] = tiles[1], tiles[0]
	back, err := Reassemble(tiles, 2, 256, 128)
	if err != nil {
		t.Fatal(err)
	}
	if back.Frames[0].At(200, 100) != s.Frames[0].At(200, 100) {
		t.Fatal("out-of-order reassembly corrupted data")
	}
}

func TestReassembleErrors(t *testing.T) {
	s := randomStack(t, 1, 256, 256, 3)
	tiles, err := Fragment(s, TileSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reassemble(nil, 1, 256, 256); err == nil {
		t.Error("empty tile list should error")
	}
	if _, err := Reassemble(tiles[:3], 1, 256, 256); err == nil {
		t.Error("missing tiles should error")
	}
	dup := append([]Tile(nil), tiles...)
	dup[1] = dup[0]
	if _, err := Reassemble(dup, 1, 256, 256); err == nil {
		t.Error("duplicate tiles should error")
	}
	bad := append([]Tile(nil), tiles...)
	bad[2].Stack = NewStack(2, TileSize, TileSize) // wrong depth
	if _, err := Reassemble(bad, 1, 256, 256); err == nil {
		t.Error("inconsistent tile depth should error")
	}
}

func TestFragmentPropertyRoundTrip(t *testing.T) {
	// Any stack whose dimensions are multiples of the tile size survives a
	// fragment/reassemble round trip.
	f := func(seed uint64, wMul, hMul, n uint8) bool {
		w := (int(wMul%3) + 1) * 32
		h := (int(hMul%3) + 1) * 32
		depth := int(n%4) + 1
		s := NewStack(depth, w, h)
		src := rng.New(seed)
		for _, fr := range s.Frames {
			for i := range fr.Pix {
				fr.Pix[i] = uint16(src.Uint32())
			}
		}
		tiles, err := Fragment(s, 32)
		if err != nil {
			return false
		}
		back, err := Reassemble(tiles, depth, w, h)
		if err != nil {
			return false
		}
		for i := range s.Frames {
			for j := range s.Frames[i].Pix {
				if s.Frames[i].Pix[j] != back.Frames[i].Pix[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesAtBufReuse(t *testing.T) {
	s := NewStack(4, 3, 3)
	for i, f := range s.Frames {
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				f.Set(x, y, uint16(100*i+10*y+x))
			}
		}
	}
	// nil buf allocates; a large-enough buf is reused in place.
	first := s.SeriesAtBuf(1, 2, nil)
	second := s.SeriesAtBuf(2, 0, first)
	if &second[0] != &first[0] {
		t.Fatal("SeriesAtBuf did not reuse the supplied buffer")
	}
	for i := range second {
		if want := uint16(100*i + 2); second[i] != want {
			t.Fatalf("reused-buffer series[%d] = %d, want %d", i, second[i], want)
		}
	}
	// An undersized buf is replaced by a fresh slice of the right length.
	small := make(Series, 1)
	grown := s.SeriesAtBuf(0, 1, small)
	if len(grown) != s.Len() {
		t.Fatalf("grown series has length %d, want %d", len(grown), s.Len())
	}
	for i := range grown {
		if want := uint16(100*i + 10); grown[i] != want {
			t.Fatalf("grown series[%d] = %d, want %d", i, grown[i], want)
		}
	}
	// SeriesAt keeps its fresh-copy convenience contract.
	a, b := s.SeriesAt(1, 1), s.SeriesAt(1, 1)
	if &a[0] == &b[0] {
		t.Fatal("SeriesAt returned a shared buffer")
	}
	// Steady-state SeriesAtBuf must not allocate.
	buf := s.SeriesAtBuf(0, 0, nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf = s.SeriesAtBuf(1, 1, buf)
	})
	if allocs != 0 {
		t.Fatalf("SeriesAtBuf allocates %.1f per call with a sufficient buffer, want 0", allocs)
	}
}

func TestPixelsLERoundTrip(t *testing.T) {
	for n := 0; n < 11; n++ {
		pix := make([]uint16, n)
		for i := range pix {
			pix[i] = uint16(0x9e37*i + 0x1234)
		}
		b := make([]byte, 2*n)
		PutPixelsLE(b, pix)
		for i, v := range pix {
			if b[2*i] != byte(v) || b[2*i+1] != byte(v>>8) {
				t.Fatalf("n=%d: pixel %d encoded as %x %x, want little-endian %04x", n, i, b[2*i], b[2*i+1], v)
			}
		}
		got := make([]uint16, n)
		PixelsFromLE(got, b)
		for i := range pix {
			if got[i] != pix[i] {
				t.Fatalf("n=%d: pixel %d decoded %04x, want %04x", n, i, got[i], pix[i])
			}
		}
	}
}
