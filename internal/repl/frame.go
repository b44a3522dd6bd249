// Package repl implements one-directional WAL-shipping replication: a
// primary streams committed transactions over TCP to follower
// processes, which apply them to their own local store and serve reads
// at full speed while the primary takes writes.
//
// The wire is a sequence of frames, each carrying its LSN (the oltp
// WALCursor the receiver holds once the frame is applied), length and a
// CRC32-C checksum over header and payload — the same checksum
// discipline as the WAL segments the stream is read from. The receiver
// validates every frame and treats any fault — connection drop, torn
// frame, checksum mismatch, LSN regression, heartbeat silence — the
// same way: tear the connection down and reconnect with capped
// exponential backoff plus jitter, resuming from the durable replication
// cursor. When the primary has checkpoint-truncated past that cursor it
// answers the handshake with a full snapshot bootstrap instead (the
// refresh maintainer's ErrTailGap→resync protocol, extended over the
// wire).
//
// The primary pins WAL retention per registered follower so a live
// follower never needs a resync, and evicts the pin of any follower
// more than MaxLagSegments behind so a permanently dead follower cannot
// exhaust the primary's disk.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"

	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/storage"
)

// Frame layout, little-endian:
//
//	magic   uint32  "DRPL"
//	type    uint8
//	epoch   uint64  sender's replication epoch (fencing term)
//	lsn.seq uint64
//	lsn.off uint64  (as uint64 two's complement of the int64 offset)
//	length  uint32  payload bytes
//	crc     uint32  CRC32-C over type..length header bytes + payload
//	payload [length]byte
//
// Every frame carries the sender's epoch so fencing needs no extra
// round trips: a follower rejects any frame from an epoch below its
// own, and a primary fences itself the moment a hello or ack arrives
// from a higher epoch. Wire version 2 added the epoch field; there is
// no cross-version compatibility (both ends ship in this repo).
const (
	frameMagic  = uint32(0x4452504C) // "DRPL"
	headerLen   = 4 + 1 + 8 + 8 + 8 + 4 + 4
	maxPayload  = 1 << 26 // matches the WAL's own frame bound
	wireVersion = 2
)

// frameType discriminates wire frames.
type frameType uint8

const (
	// fHello is the follower's first frame: version, follower id,
	// schema hash and resume cursor (as the frame LSN).
	fHello frameType = 1 + iota
	// fTx carries one committed transaction; the LSN is the cursor just
	// past it (CommittedTx.End).
	fTx
	// fHeartbeat is sent by the primary when the follower is fully
	// caught up; its LSN is the streamed-up-to cursor, which the
	// follower may adopt directly (the stream is single and in-order,
	// so nothing can have been skipped).
	fHeartbeat
	// fSnapBegin opens a snapshot bootstrap: payload is the row count,
	// LSN is the snapshot's consistency point.
	fSnapBegin
	// fSnapChunk carries a batch of snapshot rows.
	fSnapChunk
	// fSnapEnd closes the bootstrap; same LSN as fSnapBegin. The
	// follower applies the whole snapshot as one transaction when it
	// sees this frame.
	fSnapEnd
	// fAck is the follower's applied-cursor report, driving the
	// primary's lag accounting and retention pins.
	fAck
	// fError carries a terminal human-readable refusal (schema
	// mismatch, bad version) before the primary closes the connection.
	fError
)

func (t frameType) String() string {
	switch t {
	case fHello:
		return "hello"
	case fTx:
		return "tx"
	case fHeartbeat:
		return "heartbeat"
	case fSnapBegin:
		return "snap-begin"
	case fSnapChunk:
		return "snap-chunk"
	case fSnapEnd:
		return "snap-end"
	case fAck:
		return "ack"
	case fError:
		return "error"
	default:
		return fmt.Sprintf("frameType(%d)", uint8(t))
	}
}

// ErrBadFrame reports a frame the receiver refused: bad magic, bad
// checksum, oversized or truncated. It always forces a reconnect.
var ErrBadFrame = errors.New("repl: bad frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame is one wire frame.
type frame struct {
	typ     frameType
	epoch   uint64
	lsn     oltp.WALCursor
	payload []byte
}

// appendFrame serialises f onto buf and returns the extended slice.
func appendFrame(buf []byte, f frame) ([]byte, error) {
	if len(f.payload) > maxPayload {
		return nil, fmt.Errorf("%w: payload %d exceeds %d", ErrBadFrame, len(f.payload), maxPayload)
	}
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], frameMagic)
	hdr[4] = byte(f.typ)
	binary.LittleEndian.PutUint64(hdr[5:13], f.epoch)
	binary.LittleEndian.PutUint64(hdr[13:21], f.lsn.Seq)
	binary.LittleEndian.PutUint64(hdr[21:29], uint64(f.lsn.Off))
	binary.LittleEndian.PutUint32(hdr[29:33], uint32(len(f.payload)))
	crc := crc32.Checksum(hdr[4:33], castagnoli)
	crc = crc32.Update(crc, castagnoli, f.payload)
	binary.LittleEndian.PutUint32(hdr[33:37], crc)
	buf = append(buf, hdr[:]...)
	buf = append(buf, f.payload...)
	return buf, nil
}

// writeFrame serialises and writes one frame.
func writeFrame(w io.Writer, f frame) error {
	buf, err := appendFrame(nil, f)
	if err != nil {
		return err
	}
	n, err := w.Write(buf)
	if err != nil {
		return err
	}
	metricBytes.Add(uint64(n))
	metricFramesSent.Inc()
	return nil
}

// readFrame reads and validates one frame. Any violation returns an
// error wrapping ErrBadFrame; io errors pass through for the caller's
// reconnect logic.
func readFrame(r io.Reader) (frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != frameMagic {
		return frame{}, fmt.Errorf("%w: bad magic %08x", ErrBadFrame, binary.LittleEndian.Uint32(hdr[0:4]))
	}
	f := frame{
		typ:   frameType(hdr[4]),
		epoch: binary.LittleEndian.Uint64(hdr[5:13]),
		lsn: oltp.WALCursor{
			Seq: binary.LittleEndian.Uint64(hdr[13:21]),
			Off: int64(binary.LittleEndian.Uint64(hdr[21:29])),
		},
	}
	length := binary.LittleEndian.Uint32(hdr[29:33])
	if length > maxPayload {
		return frame{}, fmt.Errorf("%w: payload %d exceeds %d", ErrBadFrame, length, maxPayload)
	}
	want := binary.LittleEndian.Uint32(hdr[33:37])
	if length > 0 {
		f.payload = make([]byte, length)
		if _, err := io.ReadFull(r, f.payload); err != nil {
			return frame{}, err
		}
	}
	crc := crc32.Checksum(hdr[4:33], castagnoli)
	crc = crc32.Update(crc, castagnoli, f.payload)
	if crc != want {
		return frame{}, fmt.Errorf("%w: checksum mismatch on %s frame", ErrBadFrame, f.typ)
	}
	metricBytes.Add(uint64(headerLen) + uint64(length))
	metricFramesRecv.Inc()
	return f, nil
}

// schemaHash fingerprints a schema (field names and kinds, in order) so
// the handshake can refuse a follower built against different columns.
func schemaHash(s *storage.Schema) uint64 {
	h := fnv.New64a()
	for i := 0; i < s.Len(); i++ {
		f := s.Field(i)
		io.WriteString(h, f.Name)
		h.Write([]byte{0, byte(f.Kind), 0})
	}
	return h.Sum64()
}

// helloPayload is the follower's handshake: wire version, schema hash
// and follower id. The resume cursor rides as the frame LSN.
func encodeHello(id string, schema uint64) []byte {
	buf := make([]byte, 0, 1+8+1+len(id))
	buf = append(buf, wireVersion)
	buf = binary.LittleEndian.AppendUint64(buf, schema)
	buf = binary.AppendUvarint(buf, uint64(len(id)))
	buf = append(buf, id...)
	return buf
}

const maxFollowerID = 256

func decodeHello(p []byte) (id string, schema uint64, err error) {
	if len(p) < 1+8+1 {
		return "", 0, fmt.Errorf("%w: hello too short", ErrBadFrame)
	}
	if p[0] != wireVersion {
		return "", 0, fmt.Errorf("repl: wire version %d not supported", p[0])
	}
	schema = binary.LittleEndian.Uint64(p[1:9])
	n, used := binary.Uvarint(p[9:])
	if used <= 0 || n > maxFollowerID || int(n) != len(p)-9-used {
		return "", 0, fmt.Errorf("%w: bad hello id", ErrBadFrame)
	}
	return string(p[9+used:]), schema, nil
}

// Snapshot chunks reuse the oltp row-change codec: a chunk payload is
// an EncodeTxPayload of insert changes, so the follower can decode it
// with the same function it uses for fTx payloads.

// encodeSnapBegin carries the total row count.
func encodeSnapBegin(rows uint64) []byte {
	return binary.AppendUvarint(nil, rows)
}

func decodeSnapBegin(p []byte) (uint64, error) {
	rows, used := binary.Uvarint(p)
	if used <= 0 || used != len(p) {
		return 0, fmt.Errorf("%w: bad snap-begin payload", ErrBadFrame)
	}
	return rows, nil
}
