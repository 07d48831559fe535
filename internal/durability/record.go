package durability

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/codec"
	"repro/internal/scheduler"
)

// Typed decode failures. The WAL reader distinguishes a *torn tail* (the
// partial final frame a crash mid-append leaves behind — expected, safely
// discarded) from *corruption* (damage anywhere that cannot be explained
// by a torn write — never silently skipped).
var (
	// ErrTornTail marks an incomplete or checksum-failing final frame. The
	// reader discards it; every preceding record is intact.
	ErrTornTail = errors.New("durability: torn record at log tail")
	// ErrCorrupt marks damage that a torn final write cannot explain: a
	// checksum failure or invalid length prefix with further data behind it.
	ErrCorrupt = errors.New("durability: corrupt write-ahead log")
	// ErrBadRecord marks a frame whose checksum is valid but whose payload
	// does not decode as a scheduler op (version skew or a writer bug).
	ErrBadRecord = errors.New("durability: malformed record payload")
)

// maxRecordSize bounds one frame's payload. Real records are tens of
// bytes plus the job spec's strings and chain; the cap keeps a corrupt
// length prefix from driving a huge allocation.
const maxRecordSize = 1 << 20

// appendOp encodes one scheduler op as a self-contained payload. The job
// spec's Tenant field joined the encoding with the fair-share subsystem;
// logs written before it decode as ErrBadRecord (trailing-byte check)
// rather than silently dropping the field, matching the snapshot codec's
// magic bump to RSHSNAP3.
func appendOp(dst []byte, op scheduler.Op) []byte {
	dst = append(dst, byte(op.Kind))
	dst = codec.AppendFloat(dst, op.Now)
	switch op.Kind {
	case scheduler.OpSubmit:
		dst = codec.AppendSpec(dst, &op.Spec)
	case scheduler.OpContact:
		dst = codec.AppendInt(dst, op.JobID)
		dst = codec.AppendTopo(dst, op.Topo)
		dst = codec.AppendFloat(dst, op.IterTime)
		dst = codec.AppendFloat(dst, op.RedistTime)
	case scheduler.OpResizeComplete:
		dst = codec.AppendInt(dst, op.JobID)
		dst = codec.AppendFloat(dst, op.RedistTime)
	case scheduler.OpFinish, scheduler.OpFail:
		dst = codec.AppendInt(dst, op.JobID)
	case scheduler.OpRebalance:
		// A planning tick carries only its timestamp (already encoded): the
		// adopted plan is recomputed deterministically on replay.
	}
	return dst
}

// decodeOp decodes one payload produced by appendOp. It returns
// ErrBadRecord (wrapped with position detail) on any malformation and
// never panics, whatever the input.
func decodeOp(payload []byte) (scheduler.Op, error) {
	d := codec.NewDecoder(payload, ErrBadRecord, nil)
	var op scheduler.Op
	k := d.Byte()
	op.Kind = scheduler.OpKind(k)
	op.Now = d.Float()
	switch op.Kind {
	case scheduler.OpSubmit:
		d.Spec(&op.Spec)
	case scheduler.OpContact:
		op.JobID = d.Int()
		op.Topo = d.Topo()
		op.IterTime = d.Float()
		op.RedistTime = d.Float()
	case scheduler.OpResizeComplete:
		op.JobID = d.Int()
		op.RedistTime = d.Float()
	case scheduler.OpFinish, scheduler.OpFail:
		op.JobID = d.Int()
	case scheduler.OpRebalance:
		// Timestamp only.
	default:
		d.Fail(fmt.Sprintf("unknown op kind %d", k))
	}
	return op, d.Finish()
}

// appendFrame wraps one payload in the on-disk frame format:
// uvarint length | uint32 CRC32C little-endian | payload.
func appendFrame(dst, payload []byte) []byte {
	dst = codec.AppendUint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// crcTable is the Castagnoli polynomial (hardware-accelerated CRC32C).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// decodeFrames parses a segment's byte image into ops. It returns the
// decoded prefix, the byte length of that intact prefix, and the
// terminal condition:
//
//   - nil: the segment ends exactly on a frame boundary;
//   - ErrTornTail: a final partial or checksum-failing frame was
//     discarded (good marks where the intact prefix ends, so the caller
//     can truncate the tail away);
//   - ErrCorrupt: damage with further frames behind it — a torn write
//     cannot produce this, so the log is refused;
//   - ErrBadRecord: a checksummed frame whose payload doesn't decode.
func decodeFrames(b []byte) (ops []scheduler.Op, good int, err error) {
	off := 0
	for off < len(b) {
		n, sz := binary.Uvarint(b[off:])
		if sz == 0 {
			// The buffer ends inside the length prefix: a torn header.
			return ops, off, fmt.Errorf("%w: truncated length prefix at offset %d", ErrTornTail, off)
		}
		if sz < 0 || n == 0 || n > maxRecordSize {
			// A writer never produces these; if this garbage is simply the
			// start of a torn final write it must be short, otherwise it is
			// corruption proper.
			if len(b)-off <= binary.MaxVarintLen64+4 {
				return ops, off, fmt.Errorf("%w: unparseable length prefix at offset %d", ErrTornTail, off)
			}
			return ops, off, fmt.Errorf("%w: invalid length prefix at offset %d", ErrCorrupt, off)
		}
		frameEnd := off + sz + 4 + int(n)
		if frameEnd > len(b) {
			return ops, off, fmt.Errorf("%w: frame at offset %d runs past end of log", ErrTornTail, off)
		}
		want := binary.LittleEndian.Uint32(b[off+sz:])
		payload := b[off+sz+4 : frameEnd]
		if crc32.Checksum(payload, crcTable) != want {
			if frameEnd == len(b) {
				return ops, off, fmt.Errorf("%w: checksum mismatch on final frame at offset %d", ErrTornTail, off)
			}
			return ops, off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		op, err := decodeOp(payload)
		if err != nil {
			return ops, off, fmt.Errorf("record %d: %w", len(ops), err)
		}
		ops = append(ops, op)
		off = frameEnd
	}
	return ops, off, nil
}
