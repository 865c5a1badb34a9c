package frame

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// header builds the fixed header of a version-1 frame with the given atom
// count and model-name length, followed by no name or atoms.
func header(atoms uint64, nameLen uint32) []byte {
	buf := make([]byte, headerFixed)
	binary.LittleEndian.PutUint32(buf[0:], magic)
	binary.LittleEndian.PutUint32(buf[4:], 1)
	binary.LittleEndian.PutUint64(buf[8:], 7)
	binary.LittleEndian.PutUint64(buf[16:], atoms)
	binary.LittleEndian.PutUint32(buf[24:], nameLen)
	return buf
}

// A name length read from the input must not size an allocation before
// the buffer's size is checked against it: a 28-byte header claiming a
// huge name is rejected as a size mismatch, allocating next to nothing.
func TestDecodeHugeNameLenAllocatesNothing(t *testing.T) {
	for _, nameLen := range []uint32{1 << 24, 0xFFFFFFFF} {
		buf := header(1, nameLen)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(buf)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "size") {
			t.Errorf("nameLen %#x: err %v, want a size mismatch", nameLen, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
			t.Errorf("nameLen %#x: Decode allocated %d bytes rejecting a %d-byte buffer", nameLen, n, len(buf))
		}
	}
}

// FuzzDecode feeds Decode arbitrary bytes: it must return a frame or an
// error, never panic, and a frame it returns must re-encode to the input.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		fr, err := Decode(buf)
		if err != nil {
			return
		}
		if got := fr.Encode(); string(got) != string(buf) {
			t.Fatalf("decoded frame re-encodes to %d bytes, input was %d", len(got), len(buf))
		}
	})
}
