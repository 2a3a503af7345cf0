package dataset

import "encoding/binary"

// PutPixelsLE stores pix into dst as little-endian uint16s, the byte
// layout the serve wire, the content digest and the WAL share. dst must
// hold 2·len(pix) bytes. Pixels move four to a 64-bit word.
func PutPixelsLE(dst []byte, pix []uint16) {
	dst = dst[:2*len(pix)]
	for len(pix) >= 4 {
		binary.LittleEndian.PutUint64(dst, uint64(pix[0])|uint64(pix[1])<<16|uint64(pix[2])<<32|uint64(pix[3])<<48)
		dst, pix = dst[8:], pix[4:]
	}
	for i, v := range pix {
		binary.LittleEndian.PutUint16(dst[2*i:], v)
	}
}

// PixelsFromLE decodes 2·len(dst) little-endian bytes of src into dst,
// reversing PutPixelsLE.
func PixelsFromLE(dst []uint16, src []byte) {
	src = src[:2*len(dst)]
	for len(dst) >= 4 {
		w := binary.LittleEndian.Uint64(src)
		d := dst[:4:4]
		d[0], d[1], d[2], d[3] = uint16(w), uint16(w>>16), uint16(w>>32), uint16(w>>48)
		dst, src = dst[4:], src[8:]
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint16(src[2*i:])
	}
}
