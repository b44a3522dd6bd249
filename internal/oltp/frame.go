package oltp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
)

// The log codec. Every reader and writer of the on-disk format goes
// through this file: recovery, TailWAL (and so refresh, replication
// shipping and VerifyWALTail) and checkpoint load read frames with
// readFrame, and the segment writer and the checkpoint writer write them
// with writeFrame.
//
// On-disk format, version 2 (format 1 was a single unframed wal.log; no
// reader for it remains, and a directory holding one is refused — see
// scanWalDir). The log is a sequence of numbered segment files
// wal-NNNNNNNN.seg, each starting with an 8-byte magic and containing
// framed records:
//
//	frame   length  uint32 LE   (payload bytes)
//	        crc     uint32 LE   (CRC32-C of payload)
//	        payload
//
//	payload op   1 byte
//	        tx   uvarint
//	        id   uvarint        (data records only)
//	        nval uvarint        (data records with rows only)
//	        vals nval × value   (kind byte + payload)
//
// Commit markers consist of just op+tx. A transaction's records and its
// commit marker always sit in one segment: rotation and checkpoint
// happen only before a transaction's first record (see logTxs). An
// incomplete frame at the end of the LAST segment is a torn tail from a
// crash: it is physically truncated away and the store continues. A
// checksum mismatch, an implausible frame length, or an incomplete frame
// anywhere else is mid-log corruption and recovery fails loudly with the
// segment and byte offset — a flipped bit is never silently replayed.
//
// A checkpoint file checkpoint-NNNNNNNN.ckpt holds a full snapshot of
// committed state in the same framing (see checkpoint.go); its number is
// the first segment sequence that must be replayed on top of it.
// Checkpoints are written to a temp file, synced and renamed, so a crash
// never exposes a partial checkpoint; after a checkpoint lands, older
// segments and checkpoints are deleted.

const (
	segMagic  = "DDGWSEG2"
	ckptMagic = "DDGWCKP2"

	frameHeader = 8       // uint32 length + uint32 crc
	maxFrame    = 1 << 26 // sanity bound on one record
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// writeFrame writes payload as one frame and returns the frame's size.
func writeFrame(w *bufio.Writer, payload []byte) (int64, error) {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return int64(frameHeader + len(payload)), nil
}

// frameFault says why no intact frame starts at an offset. A torn frame
// is one the data ends inside, which is what a crash mid-write leaves; any
// other fault can only be rot, since a torn write leaves a strict prefix
// of valid bytes.
type frameFault struct {
	what string
	torn bool
}

// readFrame decodes the frame at data[off:], returning its payload and
// the offset just past it, or the fault that stops it.
func readFrame(data []byte, off int) ([]byte, int, *frameFault) {
	rem := len(data) - off
	if rem < frameHeader {
		return nil, off, &frameFault{what: "truncated frame header", torn: true}
	}
	length := binary.LittleEndian.Uint32(data[off : off+4])
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if length > maxFrame {
		return nil, off, &frameFault{what: fmt.Sprintf("implausible record length %d", length)}
	}
	end := off + frameHeader + int(length)
	if end > len(data) {
		return nil, off, &frameFault{what: "truncated record", torn: true}
	}
	payload := data[off+frameHeader : end]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, off, &frameFault{what: "checksum mismatch"}
	}
	return payload, end, nil
}

// errShortHeader reports a tail segment shorter than its magic: a crash
// while creating it, which leaves nothing durable in it.
var errShortHeader = errors.New("oltp: segment shorter than header")

// readSegmentFrom opens WAL segment seq, verifies its magic, and returns
// the bytes from offset start onward plus the segment's total size, so a
// polling consumer near the tail of a large segment reads only the
// unconsumed suffix. A segment shorter than its magic is errShortHeader
// when it is the log's tail and corruption anywhere else.
func (s *Store) readSegmentFrom(seq uint64, start int64, tail bool) ([]byte, int64, error) {
	name := segName(seq)
	f, err := s.fs.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, 0, fmt.Errorf("oltp: opening WAL segment %s: %w", name, err)
	}
	defer f.Close()
	hdr := make([]byte, len(segMagic))
	n, err := io.ReadFull(f, hdr)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		if tail {
			return nil, int64(n), errShortHeader
		}
		return nil, 0, fmt.Errorf("%w: segment %s: truncated header (%d bytes)", errCorrupt, name, n)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("oltp: reading WAL segment %s: %w", name, err)
	}
	if string(hdr) != segMagic {
		return nil, 0, fmt.Errorf("%w: segment %s: bad magic at offset 0", errCorrupt, name)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, fmt.Errorf("oltp: sizing WAL segment %s: %w", name, err)
	}
	if start >= size {
		return nil, size, nil
	}
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("oltp: seeking WAL segment %s: %w", name, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, fmt.Errorf("oltp: reading WAL segment %s: %w", name, err)
	}
	return data, start + int64(len(data)), nil
}

// scanSegment decodes the records of WAL segment seq; data holds the
// segment from file offset base on. It calls fn once per committed
// transaction that carries changes, in commit order, with the file
// offset just past its commit marker; fn returning false stops the scan
// there. Records whose commit marker never lands in the segment belong
// to a transaction abandoned by a failed commit and are dropped:
// transactions never span segments. A torn frame ends the scan when tail
// is set (the log's last segment, where a crash may cut a write short);
// anywhere else it is corruption, as is any other frame fault or an
// undecodable record, reported with the segment and byte offset.
//
// scanSegment returns the file offset where the scan ended and the
// highest transaction id seen, committed or not: a reopened store must
// never reuse the id of an orphaned uncommitted transaction, or a later
// commit marker would adopt its records.
func scanSegment(seq uint64, data []byte, base int64, tail bool, fn func(tx uint64, changes []Change, end int64) bool) (int64, uint64, error) {
	var (
		pending map[uint64][]Change
		maxTx   uint64
		off     int
	)
	for off < len(data) {
		payload, next, fault := readFrame(data, off)
		if fault != nil {
			if fault.torn && tail {
				break
			}
			return 0, maxTx, fmt.Errorf("%w: segment %s: %s at offset %d", errCorrupt, segName(seq), fault.what, base+int64(off))
		}
		rec, err := decodeRecordPayload(payload)
		if err != nil {
			return 0, maxTx, fmt.Errorf("%w: segment %s: undecodable record at offset %d: %v", errCorrupt, segName(seq), base+int64(off), err)
		}
		off = next
		maxTx = max(maxTx, rec.tx)
		if rec.op != opCommit {
			if pending == nil {
				pending = make(map[uint64][]Change)
			}
			pending[rec.tx] = append(pending[rec.tx], Change{Op: ChangeOp(rec.op), ID: rec.id, Row: rec.row})
			continue
		}
		changes := pending[rec.tx]
		delete(pending, rec.tx)
		if len(changes) > 0 && !fn(rec.tx, changes, base+int64(off)) {
			break
		}
	}
	return base + int64(off), maxTx, nil
}
