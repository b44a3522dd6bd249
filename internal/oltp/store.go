// Package oltp implements the transactional row store of the DD-DGMS
// architecture: the "DB" box in the paper's Fig 2 from which the data
// warehouse is populated, and the engine behind OLTP-style reporting.
//
// The store provides serializable transactions via optimistic concurrency
// control with commit-time validation (per-row version numbers, with locks
// acquired in sorted row order so commits cannot deadlock), and hash
// secondary indexes for point reporting queries.
//
// Durability is a segmented write-ahead log: length+CRC32-C framed
// records with per-transaction commit markers, fsynced before apply.
// Segments rotate at a size threshold; past a byte budget the store
// instead writes a checkpoint — a framed snapshot of committed state,
// written to a temp file and renamed into place — and sweeps the
// segments it supersedes. Recovery loads the newest complete
// checkpoint, replays the segments above it (tolerating a torn tail in
// the last segment only), and any WAL error mid-commit poisons the log
// so later commits fail fast instead of appending after garbage.
// Commit, fsync, rotation, checkpoint and lock-wait rates are exported
// through internal/obs as the ddgms_oltp_* metric families.
package oltp

import (
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/ddgms/ddgms/internal/faultfs"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// RowID identifies a row for its entire lifetime.
type RowID uint64

// Row is one record; it always has exactly one value per schema field.
type Row []value.Value

// Conflict and lifecycle errors returned by transaction operations.
var (
	// ErrConflict reports that commit-time validation failed because
	// another transaction committed a conflicting change first. The caller
	// should retry the whole transaction.
	ErrConflict = errors.New("oltp: transaction conflict")
	// ErrTxDone reports use of a transaction after Commit or Rollback.
	ErrTxDone = errors.New("oltp: transaction already finished")
	// ErrNotFound reports an operation against a row that does not exist.
	ErrNotFound = errors.New("oltp: row not found")
	// ErrClosed reports use of a store after Close.
	ErrClosed = errors.New("oltp: store closed")
)

// Options tunes durability behaviour. The zero value means defaults.
type Options struct {
	// FS is the filesystem the WAL writes through; nil means the real
	// one. Tests substitute a faultfs.Fault to crash the store at exact
	// injection points.
	FS faultfs.FS
	// SegmentBytes rotates the WAL to a fresh segment once the current
	// one exceeds this size. Default 4 MiB.
	SegmentBytes int64
	// CheckpointBytes snapshots committed state and truncates old
	// segments once the log grows past this size. Default 32 MiB.
	CheckpointBytes int64
	// Log, when set, receives one line per checkpoint with the snapshot's
	// size on disk. Nil disables checkpoint logging.
	Log *log.Logger
	// Meta, when set, receives committed meta records (see meta.go) and
	// contributes its state blob to checkpoints and snapshots. It must
	// be registered at open time: recovery replays meta records through
	// it.
	Meta MetaApplier
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = faultfs.OS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CheckpointBytes <= 0 {
		o.CheckpointBytes = 32 << 20
	}
	return o
}

// versionedRow is the committed state of one row.
type versionedRow struct {
	row     Row
	version uint64
}

// Store is a transactional row store for a single fixed schema.
type Store struct {
	schema *storage.Schema

	mu      sync.RWMutex
	rows    map[RowID]versionedRow
	nextID  RowID
	indexes map[string]*index

	walMu        sync.Mutex
	wal          *walWriter
	walErr       error // sticky: a failed WAL write poisons the log
	walSinceCkpt int64 // bytes appended since the last checkpoint
	ckptCount    uint64
	ckptBytes    int64 // size on disk of the last checkpoint written
	closed       bool
	dir          string
	fs           faultfs.FS
	opts         Options
	pins         map[string]uint64 // named WAL retention pins; min wins
	replica      bool              // read-only replica: local commits refused

	nextTx uint64

	// Commit feed state for CDC consumers. commits/lastCommitNano are
	// guarded by s.mu (written inside Commit's critical section); the
	// subscriber set has its own mutex so notification never interacts
	// with store locking.
	commits        uint64
	lastCommitNano int64
	subMu          sync.Mutex
	subs           map[chan struct{}]struct{}
}

// Open creates or reopens a store in dir with default durability options.
// If a write-ahead log exists, all committed transactions are replayed; an
// interrupted (uncommitted) tail is discarded; detected corruption (a
// checksum failure anywhere before the tail) fails the open loudly. Pass
// an empty dir for a purely in-memory store without durability.
func Open(dir string, schema *storage.Schema) (*Store, error) {
	return OpenWith(dir, schema, Options{})
}

// OpenWith is Open with explicit durability options.
func OpenWith(dir string, schema *storage.Schema, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{
		schema:  schema,
		rows:    make(map[RowID]versionedRow),
		indexes: make(map[string]*index),
		dir:     dir,
		fs:      opts.FS,
		opts:    opts,
	}
	if dir == "" {
		return s, nil
	}
	if err := s.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("oltp: creating store dir: %w", err)
	}
	if err := s.recover(s.fs, dir); err != nil {
		return nil, err
	}
	return s, nil
}

// Close flushes, syncs and releases the write-ahead log, reporting the
// first error encountered. The store accepts no commits afterwards.
func (s *Store) Close() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	err := s.wal.close()
	s.wal = nil
	if err != nil {
		return fmt.Errorf("oltp: closing WAL: %w", err)
	}
	return nil
}

// Healthy reports whether the store can durably accept commits: nil for a
// usable store, ErrClosed after Close, or the sticky WAL error after a
// failed log write.
func (s *Store) Healthy() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.walErr != nil {
		return s.walErr
	}
	return nil
}

// HealthyBounded is Healthy with a bound on how long it will wait for
// the WAL mutex: a store wedged mid-commit (e.g. a hung fsync) answers
// ctx's error instead of blocking the caller — the shape health probes
// need, where "can't even check" must surface as unhealthy, fast.
func (s *Store) HealthyBounded(ctx context.Context) error {
	for {
		if s.walMu.TryLock() {
			defer s.walMu.Unlock()
			if s.closed {
				return ErrClosed
			}
			if s.walErr != nil {
				return s.walErr
			}
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("oltp: health probe: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// walUsableLocked guards WAL use; the caller holds s.walMu.
func (s *Store) walUsableLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.walErr != nil {
		return fmt.Errorf("oltp: WAL unusable after earlier failure: %w", s.walErr)
	}
	return nil
}

// failWalLocked records a WAL failure. The log may now contain a partial
// record, so no further appends are allowed: replay would otherwise read
// garbage across the boundary. The caller holds s.walMu.
func (s *Store) failWalLocked(err error) error {
	s.walErr = err
	return err
}

// Schema returns the store schema.
func (s *Store) Schema() *storage.Schema { return s.schema }

// Len reports the number of committed rows.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rows)
}

// validateRow checks arity and per-field kinds.
func (s *Store) validateRow(row Row) error {
	if len(row) != s.schema.Len() {
		return fmt.Errorf("oltp: row has %d values, schema has %d fields", len(row), s.schema.Len())
	}
	for i, v := range row {
		if !v.IsNA() && v.Kind() != s.schema.Field(i).Kind {
			return fmt.Errorf("oltp: field %q: %v value in %v column",
				s.schema.Field(i).Name, v.Kind(), s.schema.Field(i).Kind)
		}
	}
	return nil
}

// writeOp is a buffered mutation inside a transaction.
type writeOp struct {
	op  walOp
	id  RowID
	row Row
}

// Tx is a transaction. Reads see the committed snapshot plus the
// transaction's own writes; writes are buffered and applied atomically at
// Commit. Tx is not safe for concurrent use by multiple goroutines.
type Tx struct {
	store  *Store
	id     uint64
	reads  map[RowID]uint64 // row id -> version observed (0 = absent)
	writes map[RowID]*writeOp
	order  []RowID  // write ids in first-write order, for deterministic WAL
	metas  [][]byte // buffered meta payloads, logged after the row writes
	done   bool
}

// Begin starts a new transaction.
func (s *Store) Begin() *Tx {
	s.mu.Lock()
	s.nextTx++
	id := s.nextTx
	s.mu.Unlock()
	return &Tx{
		store:  s,
		id:     id,
		reads:  make(map[RowID]uint64),
		writes: make(map[RowID]*writeOp),
	}
}

// Insert buffers a new row and returns its assigned RowID.
func (t *Tx) Insert(row Row) (RowID, error) {
	if t.done {
		return 0, ErrTxDone
	}
	if err := t.store.validateRow(row); err != nil {
		return 0, err
	}
	return t.insertOwned(cloneRow(row)), nil
}

// insertOwned buffers a validated row the transaction may keep: the
// caller hands it over and does not touch it again.
func (t *Tx) insertOwned(row Row) RowID {
	t.store.mu.Lock()
	t.store.nextID++
	id := t.store.nextID
	t.store.mu.Unlock()
	t.bufferWrite(&writeOp{op: opInsert, id: id, row: row})
	return id
}

// Update buffers a full-row replacement of an existing row.
func (t *Tx) Update(id RowID, row Row) error {
	if t.done {
		return ErrTxDone
	}
	if err := t.store.validateRow(row); err != nil {
		return err
	}
	if _, ok := t.Get(id); !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	t.bufferWrite(&writeOp{op: opUpdate, id: id, row: cloneRow(row)})
	return nil
}

// Delete buffers removal of an existing row.
func (t *Tx) Delete(id RowID) error {
	if t.done {
		return ErrTxDone
	}
	if _, ok := t.Get(id); !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	t.bufferWrite(&writeOp{op: opDelete, id: id})
	return nil
}

func (t *Tx) bufferWrite(w *writeOp) {
	if prev, ok := t.writes[w.id]; ok {
		// Collapse: insert+update stays an insert; anything+delete on a row
		// we inserted removes the pending insert entirely.
		if prev.op == opInsert {
			if w.op == opDelete {
				delete(t.writes, w.id)
				for i, id := range t.order {
					if id == w.id {
						t.order = append(t.order[:i], t.order[i+1:]...)
						break
					}
				}
				return
			}
			w.op = opInsert
		}
		t.writes[w.id] = w
		return
	}
	t.writes[w.id] = w
	t.order = append(t.order, w.id)
}

// Get reads a row: the transaction's own pending write if any, otherwise
// the committed version. The read is recorded for commit-time validation.
func (t *Tx) Get(id RowID) (Row, bool) {
	if t.done {
		return nil, false
	}
	if w, ok := t.writes[id]; ok {
		if w.op == opDelete {
			return nil, false
		}
		return cloneRow(w.row), true
	}
	t.store.mu.RLock()
	vr, ok := t.store.rows[id]
	t.store.mu.RUnlock()
	if _, seen := t.reads[id]; !seen {
		if ok {
			t.reads[id] = vr.version
		} else {
			t.reads[id] = 0
		}
	}
	if !ok {
		return nil, false
	}
	return cloneRow(vr.row), true
}

// Scan calls fn for every visible row (committed state overlaid with the
// transaction's own writes), in ascending RowID order. Returning false
// stops the scan.
func (t *Tx) Scan(fn func(id RowID, row Row) bool) {
	if t.done {
		return
	}
	t.store.mu.RLock()
	ids := make([]RowID, 0, len(t.store.rows))
	for id := range t.store.rows {
		ids = append(ids, id)
	}
	t.store.mu.RUnlock()
	for id := range t.writes {
		if t.writes[id].op == opInsert {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	seen := make(map[RowID]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		row, ok := t.Get(id)
		if !ok {
			continue
		}
		if !fn(id, row) {
			return
		}
	}
}

// Rollback abandons the transaction. It is safe to call after Commit, in
// which case it is a no-op.
func (t *Tx) Rollback() {
	t.done = true
	t.writes = nil
	t.reads = nil
}

// Commit validates the transaction's reads against the current committed
// state, appends the write set to the WAL, applies it and updates indexes,
// all atomically. On ErrConflict the transaction has had no effect and may
// be retried from scratch.
func (t *Tx) Commit() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	if len(t.writes) == 0 && len(t.metas) == 0 {
		return nil
	}
	s := t.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replica {
		commitError.Inc()
		return ErrReplica
	}

	// Validation: every row we read must still be at the observed version,
	// and every row we update/delete must still exist.
	for id, ver := range t.reads {
		cur, ok := s.rows[id]
		switch {
		case !ok && ver != 0:
			commitConflict.Inc()
			return fmt.Errorf("%w: row %d deleted concurrently", ErrConflict, id)
		case ok && cur.version != ver:
			commitConflict.Inc()
			return fmt.Errorf("%w: row %d modified concurrently", ErrConflict, id)
		}
	}
	for _, id := range t.order {
		w := t.writes[id]
		if w.op != opInsert {
			if _, ok := s.rows[id]; !ok {
				commitConflict.Inc()
				return fmt.Errorf("%w: row %d vanished before commit", ErrConflict, id)
			}
		}
	}

	// Durability: WAL first, then apply.
	if s.dir != "" {
		if err := s.logTxs([]CommittedTx{{Tx: t.id, Changes: t.changes()}}); err != nil {
			commitError.Inc()
			return err
		}
	}

	for _, id := range t.order {
		s.applyLocked(t.writes[id])
	}
	for _, m := range t.metas {
		s.applyMetaLocked(m)
	}
	s.commits++
	s.lastCommitNano = time.Now().UnixNano()
	commitOK.Inc()
	s.notifyCommit()
	return nil
}

// notifyCommit pokes every subscriber channel without blocking: a full
// channel means that subscriber already has a wake-up pending.
func (s *Store) notifyCommit() {
	s.subMu.Lock()
	for ch := range s.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	s.subMu.Unlock()
}

// SubscribeCommits registers a wake-up channel that receives (capacity 1,
// coalescing) after every successful commit. It carries no data — it only
// tells a WAL tailer that polling again is worthwhile.
func (s *Store) SubscribeCommits() chan struct{} {
	ch := make(chan struct{}, 1)
	s.subMu.Lock()
	if s.subs == nil {
		s.subs = make(map[chan struct{}]struct{})
	}
	s.subs[ch] = struct{}{}
	s.subMu.Unlock()
	return ch
}

// UnsubscribeCommits removes a channel registered with SubscribeCommits.
func (s *Store) UnsubscribeCommits(ch chan struct{}) {
	s.subMu.Lock()
	delete(s.subs, ch)
	s.subMu.Unlock()
}

// CommitStats reports the number of successful commits since open and the
// wall-clock time of the latest one (0 if none). Lag in transactions is
// this commit count minus the count a consumer has applied.
func (s *Store) CommitStats() (commits uint64, lastCommitUnixNano int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.commits, s.lastCommitNano
}

// CheckpointStats reports how many checkpoints the store has written and
// the on-disk size of the newest one (0 before the first). The freshness
// endpoint surfaces the size so operators can watch snapshot growth.
func (s *Store) CheckpointStats() (checkpoints uint64, lastBytes int64) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	return s.ckptCount, s.ckptBytes
}

// TailerPin is the retention pin name RetainWALFrom writes: the one the
// store's local refresh maintainer owns.
const TailerPin = "tailer"

// RetainWALFrom pins WAL segments at or above seq against checkpoint
// sweeping, so a tailer that has consumed up to seq can keep reading
// across checkpoints without hitting a gap. Zero clears the pin.
// Retention is in-memory: after a restart the next checkpoint may sweep
// again, and a cursor below the surviving base must resync.
//
// RetainWALFrom owns the single "tailer" pin; consumers that must
// coexist with it (replication followers, each with their own progress)
// use PinWAL under their own names, and the checkpoint sweeper keeps
// everything at or above the minimum pinned sequence.
func (s *Store) RetainWALFrom(seq uint64) {
	s.PinWAL(TailerPin, seq)
}

// PinWAL sets the named retention pin to seq: checkpoints will not sweep
// segments at or above the minimum across all pins. Zero removes the
// pin. Pins are in-memory only and vanish on restart.
func (s *Store) PinWAL(name string, seq uint64) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	s.pinLocked(name, seq)
}

// pinLocked needs s.walMu held.
func (s *Store) pinLocked(name string, seq uint64) {
	if seq == 0 {
		delete(s.pins, name)
		return
	}
	if s.pins == nil {
		s.pins = make(map[string]uint64)
	}
	s.pins[name] = seq
}

// UnpinWAL removes the named retention pin.
func (s *Store) UnpinWAL(name string) { s.PinWAL(name, 0) }

// PinWALAtDurable atomically reads the durable end of the log and pins
// the named retention at its segment, under the same lock — so no
// checkpoint can truncate the returned cursor's segment between the
// read and the pin. It is the race-free way to anchor a new consumer:
// pin first, then snapshot (the snapshot's LSN can only be at or above
// the pinned cursor).
func (s *Store) PinWALAtDurable(name string) (WALCursor, error) {
	if s.dir == "" {
		return WALCursor{}, ErrNoWAL
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.closed || s.wal == nil {
		return WALCursor{}, ErrClosed
	}
	cur := s.durableLSNLocked()
	s.pinLocked(name, cur.Seq)
	return cur, nil
}

// retainFloorLocked reports the lowest pinned segment sequence, or 0
// when nothing is pinned. The caller holds s.walMu.
func (s *Store) retainFloorLocked() uint64 {
	var floor uint64
	for _, seq := range s.pins {
		if floor == 0 || seq < floor {
			floor = seq
		}
	}
	return floor
}

// changes lists t's write set as the log records it: the row writes in
// first-write order, then the meta payloads.
func (t *Tx) changes() []Change {
	out := make([]Change, 0, len(t.order)+len(t.metas))
	for _, id := range t.order {
		w := t.writes[id]
		out = append(out, Change{Op: ChangeOp(w.op), ID: id, Row: w.row})
	}
	for _, m := range t.metas {
		out = append(out, MetaChange(m))
	}
	return out
}

// logTxs makes transactions durable before they are applied, for local
// commits and replicated batches alike: segment housekeeping (rotation
// or checkpoint when thresholds are crossed, both at a record boundary
// before the first transaction's first byte, so no transaction spans
// segments), then each transaction's records and its commit marker, then
// one sync covering them all. Any failure poisons the WAL — a partial
// record may be on disk, and appending after it would make the next
// replay read garbage — so every later commit fails fast until the store
// is reopened. The caller holds s.mu.
func (s *Store) logTxs(txs []CommittedTx) error {
	lockStart := time.Now()
	s.walMu.Lock()
	metricLockWaitSeconds.ObserveSince(lockStart)
	defer s.walMu.Unlock()
	if err := s.walUsableLocked(); err != nil {
		return err
	}
	switch {
	case s.walSinceCkpt >= s.opts.CheckpointBytes:
		if err := s.checkpointLocked(); err != nil {
			return fmt.Errorf("oltp: checkpointing WAL: %w", err)
		}
	case s.wal.size >= s.opts.SegmentBytes:
		if err := s.rotateLocked(); err != nil {
			return fmt.Errorf("oltp: rotating WAL: %w", err)
		}
	}
	before := s.wal.size
	appends := 0
	for _, tx := range txs {
		for _, ch := range tx.Changes {
			if err := s.wal.append(walRecord{tx: tx.Tx, op: walOp(ch.Op), id: ch.ID, row: ch.Row}); err != nil {
				return s.failWalLocked(fmt.Errorf("oltp: writing WAL: %w", err))
			}
		}
		if err := s.wal.append(walRecord{tx: tx.Tx, op: opCommit}); err != nil {
			return s.failWalLocked(fmt.Errorf("oltp: writing WAL commit: %w", err))
		}
		appends += len(tx.Changes) + 1
	}
	if err := s.wal.sync(); err != nil {
		return s.failWalLocked(fmt.Errorf("oltp: syncing WAL: %w", err))
	}
	metricWalAppends.Add(uint64(appends))
	metricWalFsyncs.Inc()
	s.walSinceCkpt += s.wal.size - before
	return nil
}

// rotateLocked seals the current segment and starts the next one. The
// caller holds s.walMu.
func (s *Store) rotateLocked() error {
	old := s.wal
	if err := old.close(); err != nil {
		return s.failWalLocked(err)
	}
	next, err := createSegment(s.fs, s.dir, old.seq+1)
	if err != nil {
		return s.failWalLocked(err)
	}
	s.wal = next
	metricWalRotations.Inc()
	return nil
}

// applyLocked applies one write to committed state and indexes, keeping
// w.row as the committed row: the caller must own it and not touch it
// again. Committed rows are never modified in place. The caller holds s.mu.
func (s *Store) applyLocked(w *writeOp) {
	if w.op == opMeta {
		s.applyMetaLocked(metaPayload(w.row))
		return
	}
	old, existed := s.rows[w.id]
	switch w.op {
	case opInsert, opUpdate:
		ver := uint64(1)
		if existed {
			ver = old.version + 1
		}
		s.rows[w.id] = versionedRow{row: w.row, version: ver}
	case opDelete:
		delete(s.rows, w.id)
	}
	for _, idx := range s.indexes {
		if existed {
			idx.remove(old.row[idx.col], w.id)
		}
		if w.op != opDelete {
			idx.add(w.row[idx.col], w.id)
		}
	}
	if w.id > s.nextID {
		s.nextID = w.id
	}
}

// Snapshot copies the committed rows into a columnar storage.Table, in
// ascending RowID order. This is the hand-off point from the OLTP store to
// the ETL / warehouse layers.
func (s *Store) Snapshot() (*storage.Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, rows := s.committedLocked()
	return storage.FromRows(s.schema, rows)
}

// committedLocked returns the committed row ids in ascending order and
// their rows, which are shared with the store and must not be modified.
// The caller holds s.mu for reading.
func (s *Store) committedLocked() ([]RowID, []Row) {
	ids := make([]RowID, 0, len(s.rows))
	for id := range s.rows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	rows := make([]Row, len(ids))
	for i, id := range ids {
		rows[i] = s.rows[id].row
	}
	return ids, rows
}

// LoadTable bulk-inserts every row of a storage.Table in one transaction.
// Each row is materialised once, and that copy becomes the committed row.
func (s *Store) LoadTable(tbl *storage.Table) error {
	if !tbl.Schema().Equal(s.schema) {
		return fmt.Errorf("oltp: table schema does not match store schema")
	}
	tx := s.Begin()
	for i := 0; i < tbl.Len(); i++ {
		tx.insertOwned(tbl.Row(i))
	}
	return tx.Commit()
}

func cloneRow(r Row) Row {
	if r == nil {
		return nil
	}
	out := make(Row, len(r))
	copy(out, r)
	return out
}
