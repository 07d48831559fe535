// Package codec is the one byte vocabulary of the control plane: the
// write-ahead log's records, its snapshots and the rpc/v2 frames are all
// written with these primitives — uvarints, zigzag varints, floats as their
// fixed 8-byte IEEE-754 bits, length-prefixed strings, topologies and job
// specs — and read back through one bounds-checked Decoder.
//
// A Decoder never panics and never allocates more than the bytes it was
// given could describe: every count is checked against the remaining
// payload before anything is sized from it. Failures are sticky: after the
// first one every read returns a zero value, and Err reports that first
// failure wrapped around the caller's sentinel, so decoders read straight
// through and check once.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

// Caps inside one payload, each far above anything the scheduler produces
// but small enough to bound decoder allocations.
const (
	MaxStringLen = 1 << 16
	MaxChainLen  = 1 << 16
)

// AppendUint appends a uvarint.
func AppendUint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendInt appends a zigzag varint.
func AppendInt(dst []byte, v int) []byte {
	return binary.AppendVarint(dst, int64(v))
}

// AppendFloat appends a float64 as its fixed 8-byte IEEE-754 bits.
func AppendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendString appends a uvarint length followed by the bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendTopo appends a topology as two zigzag varints.
func AppendTopo(dst []byte, t grid.Topology) []byte {
	dst = AppendInt(dst, t.Rows)
	return AppendInt(dst, t.Cols)
}

// AppendLen appends a collection length that keeps nil apart from empty:
// 0 for nil, n+1 otherwise. Decoder.Len reads it.
func AppendLen(dst []byte, n int, isNil bool) []byte {
	if isNil {
		return append(dst, 0)
	}
	return AppendUint(dst, uint64(n)+1)
}

// AppendSpec encodes one job spec — Name, App, ProblemSize, BlockSize,
// Iterations, Priority, Tenant, InitialTopo, then Chain as a count and that
// many topologies — the layout of the WAL's submit record and of the
// snapshot's per-job image. A nil and an empty Chain encode alike.
func AppendSpec(dst []byte, sp *scheduler.JobSpec) []byte {
	dst = appendSpecHead(dst, sp)
	dst = AppendUint(dst, uint64(len(sp.Chain)))
	return appendTopos(dst, sp.Chain)
}

// AppendSpecExact is AppendSpec with the Chain length written by AppendLen,
// so a nil Chain survives the round trip as nil and an empty one as empty.
func AppendSpecExact(dst []byte, sp *scheduler.JobSpec) []byte {
	dst = appendSpecHead(dst, sp)
	dst = AppendLen(dst, len(sp.Chain), sp.Chain == nil)
	return appendTopos(dst, sp.Chain)
}

func appendSpecHead(dst []byte, sp *scheduler.JobSpec) []byte {
	dst = AppendString(dst, sp.Name)
	dst = AppendString(dst, sp.App)
	dst = AppendInt(dst, sp.ProblemSize)
	dst = AppendInt(dst, sp.BlockSize)
	dst = AppendInt(dst, sp.Iterations)
	dst = AppendInt(dst, sp.Priority)
	dst = AppendString(dst, sp.Tenant)
	return AppendTopo(dst, sp.InitialTopo)
}

func appendTopos(dst []byte, ts []grid.Topology) []byte {
	for _, t := range ts {
		dst = AppendTopo(dst, t)
	}
	return dst
}

// Decoder walks one payload with bounds-checked reads.
type Decoder struct {
	b   []byte
	off int
	// sentinel is what every failure wraps, so errors.Is tells the
	// caller's decode failures from its other errors.
	sentinel error
	err      error
	syms     *Symbols
}

// NewDecoder reads payload; every failure wraps sentinel. syms, when
// non-nil, interns the strings Sym reads.
func NewDecoder(payload []byte, sentinel error, syms *Symbols) Decoder {
	return Decoder{b: payload, sentinel: sentinel, syms: syms}
}

// Fail records a failure at the current offset (the first one sticks).
func (d *Decoder) Fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", d.sentinel, what, d.off)
	}
}

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) remaining() int { return len(d.b) - d.off }

// Skip consumes the rest of the payload.
func (d *Decoder) Skip() { d.off = len(d.b) }

// Finish fails the decode if bytes are left over and returns Err.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.Fail("trailing bytes")
	}
	return d.err
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.Fail("truncated byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Uint reads a uvarint.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.Fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// Int reads a zigzag varint.
func (d *Decoder) Int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.Fail("bad varint")
		return 0
	}
	if int64(int(v)) != v {
		// Only reachable on a 32-bit platform; spec fields like the
		// master-worker's ProblemSize legitimately exceed int32.
		d.Fail("integer out of range")
		return 0
	}
	d.off += n
	return int(v)
}

// Float reads a float64 from its 8 IEEE-754 bytes.
func (d *Decoder) Float() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.Fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Bytes reads a length-prefixed byte string without copying it: the result
// aliases the payload.
func (d *Decoder) Bytes() []byte {
	n := d.Uint()
	if d.err != nil {
		return nil
	}
	if n > MaxStringLen || n > uint64(len(d.b)-d.off) {
		d.Fail("bad string length")
		return nil
	}
	s := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

// Str reads a length-prefixed string into a fresh allocation.
func (d *Decoder) Str() string {
	b := d.Bytes()
	if len(b) == 0 {
		return ""
	}
	return string(b)
}

// Sym reads a length-prefixed string from a small vocabulary (op names,
// codes, states, app and tenant names): with a Symbols table a repeated
// value costs no allocation.
func (d *Decoder) Sym() string {
	b := d.Bytes()
	if len(b) == 0 {
		return ""
	}
	if d.syms == nil {
		return string(b)
	}
	return d.syms.intern(b)
}

// Topo reads a topology.
func (d *Decoder) Topo() grid.Topology {
	r := d.Int()
	c := d.Int()
	return grid.Topology{Rows: r, Cols: c}
}

// Count reads a uvarint collection length and bounds it: at most max, and
// no larger than the remaining payload could hold at minBytes per element
// — rejected before any allocation, so a corrupt length can never drive a
// huge make().
func (d *Decoder) Count(max, minBytes int) int {
	n := d.Uint()
	if d.err != nil {
		return 0
	}
	if n > uint64(max) || n > uint64(d.remaining()/minBytes) {
		d.Fail("bad collection length")
		return 0
	}
	return int(n)
}

// Len reads a length written by AppendLen, bounded like Count.
func (d *Decoder) Len(max, minBytes int) (n int, isNil bool) {
	v := d.Uint()
	if d.err != nil || v == 0 {
		return 0, true
	}
	if v-1 > uint64(max) || v-1 > uint64(d.remaining()/minBytes) {
		d.Fail("bad collection length")
		return 0, true
	}
	return int(v - 1), false
}

// Spec decodes one job spec written by AppendSpec.
func (d *Decoder) Spec(sp *scheduler.JobSpec) {
	d.specHead(sp)
	// Each chain entry is at least two bytes.
	if n := d.Count(MaxChainLen, 2); n > 0 {
		sp.Chain = d.topos(n)
	}
}

// SpecExact decodes one job spec written by AppendSpecExact.
func (d *Decoder) SpecExact(sp *scheduler.JobSpec) {
	d.specHead(sp)
	if n, isNil := d.Len(MaxChainLen, 2); !isNil {
		sp.Chain = d.topos(n)
	}
}

func (d *Decoder) specHead(sp *scheduler.JobSpec) {
	sp.Name = d.Str()
	sp.App = d.Sym()
	sp.ProblemSize = d.Int()
	sp.BlockSize = d.Int()
	sp.Iterations = d.Int()
	sp.Priority = d.Int()
	sp.Tenant = d.Sym()
	sp.InitialTopo = d.Topo()
}

func (d *Decoder) topos(n int) []grid.Topology {
	ts := make([]grid.Topology, n)
	for i := range ts {
		ts[i] = d.Topo()
	}
	return ts
}

// Symbol-table bounds: a long-lived reader facing a peer that never repeats
// itself stops interning rather than growing without limit.
const (
	maxSymbols   = 256
	maxSymbolLen = 64
)

// Symbols interns short strings from small vocabularies for one reader.
// The zero value is ready; it is not safe for concurrent use.
type Symbols struct {
	m map[string]string
}

func (s *Symbols) intern(b []byte) string {
	if v, ok := s.m[string(b)]; ok {
		return v
	}
	v := string(b)
	if len(b) <= maxSymbolLen && len(s.m) < maxSymbols {
		if s.m == nil {
			s.m = make(map[string]string)
		}
		s.m[v] = v
	}
	return v
}
