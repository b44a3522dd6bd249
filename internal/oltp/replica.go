package oltp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"
)

// Replica support: a follower process applies the primary's committed
// transactions to its own local store verbatim — same RowIDs, same
// after-images — through ApplyReplicated instead of the transactional
// Begin/Commit path. Each applied transaction is logged to the local WAL
// first (with a locally assigned transaction id, so the local log stays
// self-consistent) and then applied to state, exactly like a local
// commit; the local change feed (TailWAL / refresh) therefore sees
// replicated writes the same way it sees local ones, which is what lets
// a follower reuse the whole CDC -> incremental-refresh stack unchanged.
//
// Apply is idempotent: an insert of an existing row is a full-row
// overwrite and a delete of an absent row is a no-op, so a batch that is
// replayed after a crash between apply and cursor save converges to the
// same state.

// ErrReplica reports a local write against a store in replica mode.
var ErrReplica = errors.New("oltp: store is a read-only replica")

// SetReplica switches the store into (or out of) replica mode: local
// transactions are refused with ErrReplica and only ApplyReplicated may
// mutate state, so a follower can never diverge from its primary.
func (s *Store) SetReplica(on bool) {
	s.mu.Lock()
	s.replica = on
	s.mu.Unlock()
}

// RowIDs returns the ids of all committed rows in ascending order.
func (s *Store) RowIDs() []RowID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]RowID, 0, len(s.rows))
	for id := range s.rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// ApplyReplicated applies committed transactions received from a
// primary. Row ids and after-images are taken verbatim; transaction ids
// are assigned locally. The whole batch is logged to the local WAL
// under a single fsync — each transaction still gets its own commit
// marker, so the local change feed sees the same transaction
// boundaries the primary had, but a follower draining a backlog pays
// one disk sync per batch instead of per transaction. It works
// regardless of replica mode (an operator can hand-apply a batch to a
// normal store), but a replica's replication receiver is its intended
// caller.
func (s *Store) ApplyReplicated(txs []CommittedTx) error {
	if len(txs) == 0 {
		return nil
	}
	for i := range txs {
		for _, ch := range txs[i].Changes {
			if ch.Op == ChangeDelete || ch.Op == ChangeMeta {
				continue
			}
			if err := s.validateRow(ch.Row); err != nil {
				return fmt.Errorf("oltp: applying replicated tx %d: %w", txs[i].Tx, err)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	local := make([]CommittedTx, len(txs))
	for i := range txs {
		s.nextTx++
		local[i] = CommittedTx{Tx: s.nextTx, Changes: txs[i].Changes}
	}
	if s.dir != "" {
		if err := s.logTxs(local); err != nil {
			commitError.Inc()
			return err
		}
	}
	for i := range txs {
		for j := range txs[i].Changes {
			ch := &txs[i].Changes[j]
			s.applyLocked(&writeOp{op: walOp(ch.Op), id: ch.ID, row: cloneRow(ch.Row)})
		}
		s.commits++
		commitOK.Inc()
	}
	s.lastCommitNano = time.Now().UnixNano()
	s.notifyCommit()
	return nil
}

// EncodeTxPayload serialises one committed transaction's change set for
// the replication wire: tx id, change count, then per change the op, row
// id and (for non-deletes) the value vector, using the same value
// encoding as the WAL itself. The End cursor is not part of the payload;
// the transport frame carries it as the frame LSN.
func EncodeTxPayload(tx CommittedTx) ([]byte, error) {
	var buf bytes.Buffer
	writeUvarint(&buf, tx.Tx)
	writeUvarint(&buf, uint64(len(tx.Changes)))
	for _, ch := range tx.Changes {
		buf.WriteByte(byte(ch.Op))
		writeUvarint(&buf, uint64(ch.ID))
		if ch.Op == ChangeDelete {
			continue
		}
		writeUvarint(&buf, uint64(len(ch.Row)))
		for _, v := range ch.Row {
			if err := writeValue(&buf, v); err != nil {
				return nil, err
			}
		}
	}
	return buf.Bytes(), nil
}

// maxTxChanges bounds a decoded change count so a corrupt length cannot
// drive an absurd allocation before the payload runs out.
const maxTxChanges = 1 << 22

// DecodeTxPayload parses an EncodeTxPayload buffer. Trailing bytes are
// an error — the frame said exactly how long the payload is. The
// returned transaction's End cursor is zero; the caller fills it from
// the frame LSN.
func DecodeTxPayload(p []byte) (CommittedTx, error) {
	br := bytes.NewReader(p)
	txid, err := binary.ReadUvarint(br)
	if err != nil {
		return CommittedTx{}, fmt.Errorf("oltp: tx payload: reading tx id: %w", err)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return CommittedTx{}, fmt.Errorf("oltp: tx payload: reading change count: %w", err)
	}
	if n > maxTxChanges {
		return CommittedTx{}, fmt.Errorf("oltp: tx payload: change count %d exceeds limit", n)
	}
	tx := CommittedTx{Tx: txid}
	if n > 0 {
		// Cap the initial allocation; append grows it if the payload
		// really does carry that many changes.
		capHint := n
		if capHint > 4096 {
			capHint = 4096
		}
		tx.Changes = make([]Change, 0, capHint)
	}
	for i := uint64(0); i < n; i++ {
		opb, err := br.ReadByte()
		if err != nil {
			return CommittedTx{}, fmt.Errorf("oltp: tx payload: reading op: %w", err)
		}
		op := ChangeOp(opb)
		if op != ChangeMeta && (walOp(op) < opInsert || walOp(op) > opDelete) {
			return CommittedTx{}, fmt.Errorf("oltp: tx payload: bad op %d", opb)
		}
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return CommittedTx{}, fmt.Errorf("oltp: tx payload: reading row id: %w", err)
		}
		ch := Change{Op: op, ID: RowID(id)}
		if op != ChangeDelete {
			nv, err := binary.ReadUvarint(br)
			if err != nil {
				return CommittedTx{}, fmt.Errorf("oltp: tx payload: reading row width: %w", err)
			}
			const maxRowWidth = 1 << 16
			if nv > maxRowWidth {
				return CommittedTx{}, fmt.Errorf("oltp: tx payload: row width %d exceeds limit", nv)
			}
			ch.Row = make(Row, nv)
			for j := range ch.Row {
				v, err := readValue(br)
				if err != nil {
					return CommittedTx{}, fmt.Errorf("oltp: tx payload: reading value: %w", err)
				}
				ch.Row[j] = v
			}
		}
		tx.Changes = append(tx.Changes, ch)
	}
	if br.Len() != 0 {
		return CommittedTx{}, fmt.Errorf("oltp: tx payload: %d trailing bytes", br.Len())
	}
	return tx, nil
}
