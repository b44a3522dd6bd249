package oltp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"github.com/ddgms/ddgms/internal/storage"
)

// Change-data capture over the write-ahead log. TailWAL re-reads the
// framed segments that Commit already writes, so the change feed needs no
// second log and is exactly as durable as the store itself. The contract
// a consumer can rely on:
//
//   - Only committed transactions are ever surfaced, whole, in commit
//     order. Data records whose commit marker never landed (a poisoned
//     log that was later reopened, or a torn tail) are silently skipped.
//   - Reads stop at the fsynced prefix of the tail segment, so a change
//     is only emitted once it would also survive a crash.
//   - The cursor (segment sequence + byte offset) is plain data; a
//     consumer persists it wherever it likes and resumes with TailWAL.
//     A cursor that points below the oldest surviving segment — the log
//     was checkpoint-truncated past it — fails with ErrTailGap, and the
//     consumer must rebuild from SnapshotWithLSN. RetainWALFrom lets a
//     live consumer pin its unread segments so this only happens across
//     restarts.

// WALCursor is a log sequence number: a position in the segmented WAL.
// The zero cursor means "from the beginning of the log", which is only
// valid while the full history is still on disk (no checkpoint yet).
type WALCursor struct {
	Seq uint64 `json:"seq"` // segment sequence number
	Off int64  `json:"off"` // byte offset within the segment
}

// IsZero reports whether c is the zero cursor.
func (c WALCursor) IsZero() bool { return c.Seq == 0 && c.Off == 0 }

// Less orders cursors by log position.
func (c WALCursor) Less(o WALCursor) bool {
	if c.Seq != o.Seq {
		return c.Seq < o.Seq
	}
	return c.Off < o.Off
}

// String renders seq:off.
func (c WALCursor) String() string { return fmt.Sprintf("%d:%d", c.Seq, c.Off) }

// ChangeOp classifies one row change.
type ChangeOp uint8

// Change operations. They mirror the WAL record ops.
const (
	ChangeInsert ChangeOp = ChangeOp(opInsert)
	ChangeUpdate ChangeOp = ChangeOp(opUpdate)
	ChangeDelete ChangeOp = ChangeOp(opDelete)
)

// String names the operation.
func (op ChangeOp) String() string {
	switch op {
	case ChangeInsert:
		return "insert"
	case ChangeUpdate:
		return "update"
	case ChangeDelete:
		return "delete"
	case ChangeMeta:
		return "meta"
	}
	return fmt.Sprintf("ChangeOp(%d)", uint8(op))
}

// Change is one row mutation within a committed transaction. Row is the
// full after-image for inserts and updates and nil for deletes.
type Change struct {
	Op  ChangeOp
	ID  RowID
	Row Row
}

// CommittedTx is one committed transaction's change set. End is the
// cursor just past its commit marker: resuming from End replays nothing
// of this transaction again.
type CommittedTx struct {
	Tx      uint64
	Changes []Change
	End     WALCursor
}

// Tailing errors.
var (
	// ErrTailGap reports that the WAL no longer contains the segment a
	// cursor points into (a checkpoint swept it). The consumer's only
	// correct move is a full resync from SnapshotWithLSN.
	ErrTailGap = errors.New("oltp: WAL position checkpoint-truncated; resync from snapshot")
	// ErrNoWAL reports tailing a store without durability (empty dir).
	ErrNoWAL = errors.New("oltp: store has no WAL to tail")
)

// TailWAL reads committed transactions from the cursor onward, at most
// maxTx of them (0 or negative means unlimited), and returns them with
// the cursor to resume from. When fewer than maxTx transactions are
// available the returned cursor is the durable end of the log, so a
// caller can poll TailWAL(cur, n) in a loop and never re-read data. The
// zero cursor starts from the beginning of history and is refused with
// ErrTailGap once a checkpoint has truncated that history.
//
// TailWAL holds the WAL lock while reading, so it observes the log only
// at commit boundaries; concurrent commits wait. Reads go through the
// store's (possibly fault-injected) filesystem.
func (s *Store) TailWAL(from WALCursor, maxTx int) ([]CommittedTx, WALCursor, error) {
	if s.dir == "" {
		return nil, from, ErrNoWAL
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.closed || s.wal == nil {
		return nil, from, ErrClosed
	}

	magic := int64(len(segMagic))
	tailSeq := s.wal.seq
	tailEnd := s.wal.synced
	if tailEnd < magic {
		tailEnd = magic // freshly created segment: header not yet flushed
	}

	lay, err := scanWalDir(s.fs, s.dir)
	if err != nil {
		return nil, from, err
	}
	if from.IsZero() {
		if len(lay.ckpts) > 0 || len(lay.segs) == 0 || lay.segs[0] != 1 {
			return nil, from, fmt.Errorf("%w (no full history for zero cursor)", ErrTailGap)
		}
		from = WALCursor{Seq: 1, Off: magic}
	}
	if from.Seq > tailSeq {
		// A consumer that drained segment N can legitimately hold a cursor
		// normalised to the start of N+1 before N+1 exists.
		if from.Seq == tailSeq+1 && from.Off <= magic {
			return nil, from, nil
		}
		return nil, from, fmt.Errorf("%w (cursor %s ahead of tail segment %d)", ErrTailGap, from, tailSeq)
	}
	present := false
	for _, seq := range lay.segs {
		if seq == from.Seq {
			present = true
			break
		}
	}
	if !present {
		return nil, from, fmt.Errorf("%w (segment %d gone, oldest is %d)", ErrTailGap, from.Seq, func() uint64 {
			if len(lay.segs) == 0 {
				return 0
			}
			return lay.segs[0]
		}())
	}

	var (
		txs     []CommittedTx
		pending = make(map[uint64][]Change)
		cur     = from
	)
	for seq := from.Seq; seq <= tailSeq; seq++ {
		name := segName(seq)
		start := magic
		if seq == from.Seq && from.Off > start {
			start = from.Off
		}
		data, size, err := s.readSegmentFrom(name, start)
		if err != nil {
			if errors.Is(err, errShortHeader) {
				if seq == tailSeq {
					cur = WALCursor{Seq: seq, Off: magic}
					break // segment created, nothing durable in it yet
				}
				return txs, cur, fmt.Errorf("%w: segment %s: truncated header (%d bytes)", errCorrupt, name, size)
			}
			if errors.Is(err, errBadMagic) {
				return txs, cur, fmt.Errorf("%w: segment %s: bad magic at offset 0", errCorrupt, name)
			}
			return txs, cur, err
		}

		limit := size
		if seq == tailSeq && tailEnd < limit {
			limit = tailEnd // never read past the fsynced prefix
		}

		off := start
		if off > limit {
			return txs, cur, fmt.Errorf("%w (cursor offset %d past end %d of segment %d)", ErrTailGap, off, limit, seq)
		}
		cur = WALCursor{Seq: seq, Off: off}
		for off < limit {
			rem := limit - off
			if rem < frameHeader {
				if seq == tailSeq {
					break // incomplete durable tail; stop before it
				}
				return txs, cur, fmt.Errorf("%w: segment %s: truncated frame header at offset %d", errCorrupt, name, off)
			}
			length := binary.LittleEndian.Uint32(data[off-start : off-start+4])
			sum := binary.LittleEndian.Uint32(data[off-start+4 : off-start+8])
			if length > maxFrame {
				return txs, cur, fmt.Errorf("%w: segment %s: implausible record length %d at offset %d", errCorrupt, name, length, off)
			}
			if rem < frameHeader+int64(length) {
				if seq == tailSeq {
					break
				}
				return txs, cur, fmt.Errorf("%w: segment %s: truncated record at offset %d", errCorrupt, name, off)
			}
			payload := data[off-start+frameHeader : off-start+frameHeader+int64(length)]
			if crc32.Checksum(payload, castagnoli) != sum {
				return txs, cur, fmt.Errorf("%w: segment %s: checksum mismatch at offset %d", errCorrupt, name, off)
			}
			rec, err := decodeRecordPayload(payload)
			if err != nil {
				return txs, cur, fmt.Errorf("%w: segment %s: undecodable record at offset %d: %v", errCorrupt, name, off, err)
			}
			off += frameHeader + int64(length)
			if rec.op == opCommit {
				if chs := pending[rec.tx]; len(chs) > 0 {
					txs = append(txs, CommittedTx{Tx: rec.tx, Changes: chs, End: WALCursor{Seq: seq, Off: off}})
					delete(pending, rec.tx)
					cur = WALCursor{Seq: seq, Off: off}
					if maxTx > 0 && len(txs) >= maxTx {
						return txs, cur, nil
					}
				}
				continue
			}
			pending[rec.tx] = append(pending[rec.tx], Change{Op: ChangeOp(rec.op), ID: rec.id, Row: rec.row})
		}
		// Transactions never span segments, so whatever is still pending
		// at a segment boundary was abandoned by a poisoned log and will
		// never commit; it is safe to advance past it.
		for tx := range pending {
			delete(pending, tx)
		}
		if seq == tailSeq {
			cur = WALCursor{Seq: seq, Off: limit}
		} else {
			cur = WALCursor{Seq: seq + 1, Off: magic}
		}
	}
	return txs, cur, nil
}

// Sentinel errors readSegmentFrom reports so TailWAL can keep its exact
// diagnostics.
var (
	errShortHeader = errors.New("oltp: segment shorter than header")
	errBadMagic    = errors.New("oltp: segment header magic mismatch")
)

// readSegmentFrom opens a WAL segment, verifies its header, and returns
// the bytes from offset start onward plus the segment's total size. A
// polling consumer holds a cursor near the tail of a large segment; when
// the file supports seeking this reads only the unconsumed suffix rather
// than the whole segment, so poll cost tracks the unread bytes, not the
// log size. On errShortHeader the returned size is the bytes present.
func (s *Store) readSegmentFrom(name string, start int64) ([]byte, int64, error) {
	magic := int64(len(segMagic))
	f, err := s.fs.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, 0, fmt.Errorf("oltp: opening WAL segment for tail: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, magic)
	n, err := io.ReadFull(f, hdr)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, int64(n), errShortHeader
		}
		return nil, 0, fmt.Errorf("oltp: reading WAL segment %s: %w", name, err)
	}
	if string(hdr) != segMagic {
		return nil, 0, errBadMagic
	}
	if sk, ok := f.(io.Seeker); ok {
		size, err := sk.Seek(0, io.SeekEnd)
		if err != nil {
			return nil, 0, fmt.Errorf("oltp: sizing WAL segment %s: %w", name, err)
		}
		if start >= size {
			return nil, size, nil
		}
		if _, err := sk.Seek(start, io.SeekStart); err != nil {
			return nil, 0, fmt.Errorf("oltp: seeking WAL segment %s: %w", name, err)
		}
		data, err := io.ReadAll(f)
		if err != nil {
			return nil, 0, fmt.Errorf("oltp: reading WAL segment %s: %w", name, err)
		}
		return data, start + int64(len(data)), nil
	}
	// Non-seekable filesystems fall back to discarding the consumed
	// prefix; a short copy means the segment ends before start.
	if skip := start - magic; skip > 0 {
		n, err := io.CopyN(io.Discard, f, skip)
		if err == io.EOF {
			return nil, magic + n, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("oltp: reading WAL segment %s: %w", name, err)
		}
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, fmt.Errorf("oltp: reading WAL segment %s: %w", name, err)
	}
	return data, start + int64(len(data)), nil
}

// DurableLSN reports the current durable end of the log: the cursor a
// consumer bootstrapping from live state would start tailing from.
func (s *Store) DurableLSN() (WALCursor, error) {
	if s.dir == "" {
		return WALCursor{}, ErrNoWAL
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.closed || s.wal == nil {
		return WALCursor{}, ErrClosed
	}
	return s.durableLSNLocked(), nil
}

// durableLSNLocked needs s.walMu held.
func (s *Store) durableLSNLocked() WALCursor {
	off := s.wal.synced
	if m := int64(len(segMagic)); off < m {
		off = m
	}
	return WALCursor{Seq: s.wal.seq, Off: off}
}

// StoreSnapshot is a consistent copy of committed state plus the log
// position it corresponds to: tailing from LSN yields exactly the
// commits not included in the table.
type StoreSnapshot struct {
	Table *storage.Table
	IDs   []RowID // row id of each table row, ascending
	// Rows holds the committed row behind each table row. The slices are
	// the store's own: committed rows are never modified in place, so
	// they may be kept, but must not be written.
	Rows []Row
	LSN  WALCursor
	// Meta is the meta applier's state blob at snapshot time (nil when
	// no applier is registered); replication bootstrap ships it so a
	// resyncing follower's meta state is replaced with its rows.
	Meta []byte
	// Commits and LastCommitUnixNano mirror CommitStats at snapshot time.
	Commits            uint64
	LastCommitUnixNano int64
}

// SnapshotWithLSN is Snapshot plus the row-id mapping and the WAL cursor
// the snapshot is consistent with. Commit applies state strictly after
// logging under the same store lock, so under the read lock every logged
// commit is applied and the durable LSN matches the visible state. For
// an in-memory store the LSN is zero and tailing is unavailable.
func (s *Store) SnapshotWithLSN() (*StoreSnapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids, rows := s.committedLocked()
	tbl, err := storage.FromRows(s.schema, rows)
	if err != nil {
		return nil, err
	}
	snap := &StoreSnapshot{
		Table:              tbl,
		IDs:                ids,
		Rows:               rows,
		Commits:            s.commits,
		LastCommitUnixNano: s.lastCommitNano,
	}
	if s.opts.Meta != nil {
		snap.Meta = s.opts.Meta.Snapshot()
	}
	if s.dir != "" {
		s.walMu.Lock()
		if !s.closed && s.wal != nil {
			snap.LSN = s.durableLSNLocked()
		}
		s.walMu.Unlock()
	}
	return snap, nil
}
