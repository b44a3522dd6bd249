package oltp

import (
	"fmt"

	"github.com/ddgms/ddgms/internal/value"
)

// Meta records: opaque side-channel payloads that ride the WAL inside
// ordinary committed transactions. They exist so state that lives next
// to the row store — the findings knowledge base is the motivating case
// — can share the store's durability, recovery, CDC and replication
// machinery instead of maintaining a second, weaker log. A meta record
// is not a row: it never touches the rows map or indexes; at apply time
// it is handed to the registered MetaApplier. On the wire and on disk
// it is shaped exactly like an insert (row id 0, a single string value
// holding the payload), so every existing encoder, decoder and checksum
// covers it for free.
//
// Durability across checkpoints works like rows: the checkpoint file
// carries the applier's Snapshot() blob as one extra frame, and
// recovery applies that blob before replaying the segments above it.
// Replication snapshot bootstrap ships the same blob as a meta change
// inside the wipe-and-rebuild transaction, so a resyncing follower's
// meta state is replaced along with its rows.

// MetaApplier consumes meta records. Apply must be total and
// deterministic: the same payload sequence must produce the same state
// on every node, and a payload it cannot parse must be ignored rather
// than failed — by the time Apply runs the record is committed.
type MetaApplier interface {
	// Apply folds one committed payload into the applier's state.
	Apply(payload []byte)
	// Snapshot returns a payload that, when Applied to a fresh applier,
	// reproduces the current state. Checkpoints and replication
	// bootstrap both use it.
	Snapshot() []byte
}

// ChangeMeta tags a meta record in the change feed. Consumers deriving
// row state (warehouse refresh, mirrors) must skip it.
const ChangeMeta ChangeOp = ChangeOp(opMeta)

// MetaChange wraps an opaque payload as a change-feed entry.
func MetaChange(payload []byte) Change {
	return Change{Op: ChangeMeta, Row: metaRow(payload)}
}

// metaRow encodes a payload as the single-string row shape shared with
// the insert encoding.
func metaRow(payload []byte) Row {
	return Row{value.Str(string(payload))}
}

// metaPayload is the inverse of metaRow; a malformed shape yields nil,
// which appliers must tolerate.
func metaPayload(row Row) []byte {
	if len(row) != 1 || row[0].Kind() != value.StringKind {
		return nil
	}
	return []byte(row[0].Str())
}

// PutMeta buffers an opaque meta payload in the transaction. At Commit
// it is logged after the row writes (inside the same commit marker) and
// handed to the store's MetaApplier; on replicas and during recovery it
// replays through the same path, so meta state is exactly as durable
// and as replicated as the rows it travels with.
func (t *Tx) PutMeta(payload []byte) error {
	if t.done {
		return ErrTxDone
	}
	if len(payload) == 0 {
		return fmt.Errorf("oltp: empty meta payload")
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	t.metas = append(t.metas, cp)
	return nil
}

// applyMetaLocked hands one committed payload to the registered
// applier. The caller holds s.mu, which is what serialises meta applies
// with row applies and snapshots.
func (s *Store) applyMetaLocked(payload []byte) {
	if s.opts.Meta != nil {
		s.opts.Meta.Apply(payload)
	}
}
