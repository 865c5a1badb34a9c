// Package frame defines the MD frame — the atom list and 3-D positions a
// simulation emits every stride — and its binary wire format. The encoded
// size is ~28 bytes per atom (a 32-bit atom id plus three float64
// coordinates), which reproduces the paper's Table I frame sizes
// (e.g. JAC: 23,558 atoms -> 644.19 KiB, within 0.01% of Table I).
package frame

import (
	"encoding/binary"
	"fmt"
	"math"
)

// magic identifies the frame wire format.
const magic = 0x4d444652 // "MDFR"

// headerFixed is the fixed part of the header: magic, version, step,
// atom count, model-name length.
const headerFixed = 4 + 4 + 8 + 8 + 4

// bytesPerAtom is the per-atom record: uint32 id + 3*float64 position.
const bytesPerAtom = 4 + 3*8

// Frame is one simulation snapshot.
type Frame struct {
	Model string
	Step  int64
	IDs   []uint32
	// Pos holds xyz triplets; len(Pos) == 3*len(IDs).
	Pos []float64
}

// NewSynthetic builds a deterministic frame with the given atom count,
// suitable for workload generation: positions are a seeded pseudo-random
// cloud in a cube, ids are sequential.
func NewSynthetic(model string, step int64, atoms int, seed uint64) *Frame {
	f := &Frame{
		Model: model,
		Step:  step,
		IDs:   make([]uint32, atoms),
		Pos:   make([]float64, 3*atoms),
	}
	state := seed | 1
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%1_000_000) / 1_000_000 * 100 // 100 Å box
	}
	for i := 0; i < atoms; i++ {
		f.IDs[i] = uint32(i)
		f.Pos[3*i] = next()
		f.Pos[3*i+1] = next()
		f.Pos[3*i+2] = next()
	}
	return f
}

// Atoms returns the atom count.
func (f *Frame) Atoms() int { return len(f.IDs) }

// EncodedSize returns the exact wire size for a model name and atom count.
func EncodedSize(model string, atoms int) int64 {
	return int64(headerFixed + len(model) + atoms*bytesPerAtom)
}

// Encode serializes the frame.
func (f *Frame) Encode() []byte {
	if len(f.Pos) != 3*len(f.IDs) {
		panic(fmt.Sprintf("frame: %d ids but %d coordinates", len(f.IDs), len(f.Pos)))
	}
	buf := make([]byte, EncodedSize(f.Model, len(f.IDs)))
	o := 0
	put32 := func(v uint32) { binary.LittleEndian.PutUint32(buf[o:], v); o += 4 }
	put64 := func(v uint64) { binary.LittleEndian.PutUint64(buf[o:], v); o += 8 }
	put32(magic)
	put32(1) // version
	put64(uint64(f.Step))
	put64(uint64(len(f.IDs)))
	put32(uint32(len(f.Model)))
	copy(buf[o:], f.Model)
	o += len(f.Model)
	for i := range f.IDs {
		put32(f.IDs[i])
		put64(math.Float64bits(f.Pos[3*i]))
		put64(math.Float64bits(f.Pos[3*i+1]))
		put64(math.Float64bits(f.Pos[3*i+2]))
	}
	return buf
}

// Decode parses a frame encoded by Encode.
func Decode(buf []byte) (*Frame, error) {
	if len(buf) < headerFixed {
		return nil, fmt.Errorf("frame: %d bytes shorter than header", len(buf))
	}
	o := 0
	get32 := func() uint32 { v := binary.LittleEndian.Uint32(buf[o:]); o += 4; return v }
	get64 := func() uint64 { v := binary.LittleEndian.Uint64(buf[o:]); o += 8; return v }
	if m := get32(); m != magic {
		return nil, fmt.Errorf("frame: bad magic %#x", m)
	}
	if v := get32(); v != 1 {
		return nil, fmt.Errorf("frame: unsupported version %d", v)
	}
	step := int64(get64())
	atoms64 := get64()
	nameLen := int(get32())
	if atoms64 > uint64(1<<31) {
		return nil, fmt.Errorf("frame: implausible atom count %d", atoms64)
	}
	atoms := int(atoms64)
	// The name length comes from the input: size the frame in int64
	// arithmetic, allocating nothing until the buffer is known to hold it.
	want := int64(headerFixed) + int64(nameLen) + int64(atoms)*bytesPerAtom
	if int64(len(buf)) != want {
		return nil, fmt.Errorf("frame: size %d, want %d for %d atoms", len(buf), want, atoms)
	}
	f := &Frame{
		Step:  step,
		Model: string(buf[o : o+nameLen]),
		IDs:   make([]uint32, atoms),
		Pos:   make([]float64, 3*atoms),
	}
	o += nameLen
	for i := 0; i < atoms; i++ {
		f.IDs[i] = get32()
		f.Pos[3*i] = math.Float64frombits(get64())
		f.Pos[3*i+1] = math.Float64frombits(get64())
		f.Pos[3*i+2] = math.Float64frombits(get64())
	}
	return f, nil
}

// Equal reports whether two frames are identical.
func (f *Frame) Equal(g *Frame) bool {
	if f.Model != g.Model || f.Step != g.Step || len(f.IDs) != len(g.IDs) {
		return false
	}
	for i := range f.IDs {
		if f.IDs[i] != g.IDs[i] {
			return false
		}
	}
	for i := range f.Pos {
		if f.Pos[i] != g.Pos[i] && !(math.IsNaN(f.Pos[i]) && math.IsNaN(g.Pos[i])) {
			return false
		}
	}
	return true
}
