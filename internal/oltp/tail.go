package oltp

import (
	"errors"
	"fmt"

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

	var txs []CommittedTx
	cur := from
	for seq := from.Seq; seq <= tailSeq; seq++ {
		tail := seq == tailSeq
		start := magic
		if seq == from.Seq && from.Off > start {
			start = from.Off
		}
		data, size, err := s.readSegmentFrom(seq, start, tail)
		if errors.Is(err, errShortHeader) {
			cur = WALCursor{Seq: seq, Off: magic}
			break // segment created, nothing durable in it yet
		}
		if err != nil {
			return txs, cur, err
		}
		limit := size
		if tail && tailEnd < limit {
			limit = tailEnd // never read past the fsynced prefix
		}
		if start > limit {
			return txs, cur, fmt.Errorf("%w (cursor offset %d past end %d of segment %d)", ErrTailGap, start, limit, seq)
		}
		cur = WALCursor{Seq: seq, Off: start}
		full := false
		_, _, err = scanSegment(seq, data[:limit-start], start, tail, func(tx uint64, changes []Change, end int64) bool {
			cur = WALCursor{Seq: seq, Off: end}
			txs = append(txs, CommittedTx{Tx: tx, Changes: changes, End: cur})
			full = maxTx > 0 && len(txs) >= maxTx
			return !full
		})
		if err != nil || full {
			return txs, cur, err
		}
		if tail {
			cur = WALCursor{Seq: seq, Off: limit}
		} else {
			cur = WALCursor{Seq: seq + 1, Off: magic}
		}
	}
	return txs, cur, nil
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
