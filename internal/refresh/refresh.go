// Package refresh maintains the star-schema warehouse incrementally
// from the OLTP change feed: a Maintainer bootstraps from a consistent
// store snapshot, then tails committed-transaction batches from the
// store's WAL and folds them into the warehouse without a rebuild.
//
// The unit of recomputation is the patient. Every ETL step in the
// DiScRi pipeline is either row-local (range rules, discretisation,
// derivations) or patient-local (trend abstraction, visit cardinality
// — both partition by the patient column), so re-running the pipeline
// over just the mirror rows of the patients touched by a batch yields
// byte-identical output to a full run restricted to those patients.
// Each batch therefore: (1) updates an in-memory mirror of committed
// OLTP rows, (2) re-derives the affected patients' rows through the
// unchanged etl.Pipeline, (3) tombstones those patients' old facts and
// appends the re-derived ones, and (4) calls cube.Engine.ApplyDelta so
// additive lattice entries are merged/retracted in place instead of the
// caches being dropped.
//
// The tail position lives in memory only. A snapshot sets it, and only
// a successful apply advances it; a failed apply leaves the mirror ahead
// of the warehouse, so the maintainer heals by a full resync from a
// fresh snapshot, which resets the position. The segments at and above
// the position are pinned against checkpoint sweeping (oltp.TailerPin),
// so a live maintainer never meets a gap however far it lags. A process
// restart always rebootstraps from a fresh snapshot.
//
// When tombstones pass CompactFraction of the fact table the Maintainer
// rebuilds the warehouse from its mirror (not from a new snapshot — the
// position does not move), reclaiming the dead rows.
package refresh

import (
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"sync"
	"time"

	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/etl"
	"github.com/ddgms/ddgms/internal/govern"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

const (
	// patientCol is the pipeline's partition key; it must exist in both
	// the store schema and the pipeline output.
	patientCol = "PatientID"
	// pollInterval bounds how long Run waits without a commit signal
	// before polling anyway.
	pollInterval = time.Second
	// Run backs off minBackoff after a failed refresh, doubling per
	// consecutive failure up to maxBackoff; a success resets it.
	minBackoff = 10 * time.Millisecond
	maxBackoff = time.Second
)

// Config parameterises a Maintainer.
type Config struct {
	// Pipeline transforms flat OLTP rows into warehouse-ready rows. Its
	// steps must be patient-local (see the package comment); the stock
	// DiScRi pipeline is.
	Pipeline *etl.Pipeline
	// Builder is the star-schema spec. Build is used at bootstrap and
	// compaction, Append for delta batches.
	Builder *star.Builder
	// MaxBatchTx caps transactions per refresh batch (default 256).
	MaxBatchTx int
	// CompactFraction is the tombstone fraction that triggers a rebuild;
	// 0 means the default 0.5, negative disables compaction.
	CompactFraction float64
	// MinCompactRows is the fact-table size below which compaction never
	// triggers (default 256).
	MinCompactRows int
	// Log, when set, receives one line per resync with the snapshot's row
	// count and LSN. Nil disables resync logging.
	Log *log.Logger
	// OnRebuild is called whenever the maintainer installs a new engine
	// (bootstrap, resync, compaction) so the serving layer can swap its
	// pointers and re-register measures and member orders. It runs with
	// the maintainer's write lock held: it must not call Freshness or
	// issue queries.
	OnRebuild func(*cube.Engine, *star.Schema, *storage.Table) error
	// Breaker, when set, gates every Refresh: an open breaker (or its
	// health probe failing, typically oltp.Healthy reporting a poisoned
	// WAL) fast-fails the batch without reading the WAL, and batch
	// outcomes feed the breaker's failure counter. The Run loop's retry
	// backoff then paces the fast-fails, so a sick store is probed
	// gently instead of hammered.
	Breaker *govern.Breaker
}

// Maintainer owns the incrementally maintained warehouse. Query code
// must hold RLock while using the engine/schema it obtained, so batch
// application (which mutates both) is excluded.
type Maintainer struct {
	store *oltp.Store
	cfg   Config

	patientIdx  int
	maxBatch    int
	compactFrac float64
	minCompact  int

	mu        sync.RWMutex
	engine    *cube.Engine
	schema    *star.Schema
	byPatient map[value.Value]map[oltp.RowID]oltp.Row
	patientOf map[oltp.RowID]value.Value
	facts     map[value.Value][]int // live fact ordinals per patient

	// pos is the WAL position the warehouse reflects. Only the consumer
	// goroutine writes it, under mu, so that goroutine reads it unlocked.
	pos            oltp.WALCursor
	appliedCommits uint64
	appliedEvents  uint64
	lastApplyNano  int64
	compactions    uint64
	resyncs        uint64
}

// Freshness reports how far the warehouse trails the OLTP store. It is
// the payload of the /freshness endpoint.
type Freshness struct {
	AppliedLSN oltp.WALCursor `json:"applied_lsn"`
	DurableLSN oltp.WALCursor `json:"durable_lsn"`
	// LagTx is the number of committed transactions not yet applied.
	LagTx uint64 `json:"lag_tx"`
	// LagSeconds approximates wall-clock staleness: 0 when caught up,
	// otherwise seconds since the warehouse last applied a batch.
	LagSeconds         float64 `json:"lag_seconds"`
	AppliedCommits     uint64  `json:"applied_commits"`
	StoreCommits       uint64  `json:"store_commits"`
	AppliedEvents      uint64  `json:"applied_events"`
	FactRows           int     `json:"fact_rows"`
	LiveRows           int     `json:"live_rows"`
	Compactions        uint64  `json:"compactions"`
	Resyncs            uint64  `json:"resyncs"`
	LastApplyUnixNano  int64   `json:"last_apply_unix_nano"`
	LastCommitUnixNano int64   `json:"last_commit_unix_nano"`
	// CheckpointBytes is the on-disk size of the store's most recent
	// checkpoint, 0 before the first checkpoint.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
}

// New builds a Maintainer over a store and bootstraps the warehouse from
// a snapshot. Over a store without a WAL the Maintainer is bootstrap-only:
// Refresh and Run return oltp.ErrNoWAL.
func New(store *oltp.Store, cfg Config) (*Maintainer, error) {
	if cfg.Pipeline == nil || cfg.Builder == nil {
		return nil, errors.New("refresh: Pipeline and Builder are required")
	}
	idx, ok := store.Schema().Lookup(patientCol)
	if !ok {
		return nil, fmt.Errorf("refresh: store schema has no column %q", patientCol)
	}
	m := &Maintainer{store: store, cfg: cfg, patientIdx: idx}
	m.maxBatch = cfg.MaxBatchTx
	if m.maxBatch <= 0 {
		m.maxBatch = 256
	}
	m.compactFrac = cfg.CompactFraction
	if m.compactFrac == 0 {
		m.compactFrac = 0.5
	}
	m.minCompact = cfg.MinCompactRows
	if m.minCompact <= 0 {
		m.minCompact = 256
	}
	if err := m.resync(); err != nil {
		return nil, err
	}
	return m, nil
}

// RLock takes the maintainer's read lock. Query code holds it while
// executing against the engine/schema so batch application is excluded;
// release with RUnlock.
func (m *Maintainer) RLock() { m.mu.RLock() }

// RUnlock releases RLock.
func (m *Maintainer) RUnlock() { m.mu.RUnlock() }

// Lock takes the write lock for out-of-band warehouse mutations made
// outside the refresh loop (grafting a feedback dimension). Such a
// mutation survives rebuilds only if OnRebuild repeats it.
func (m *Maintainer) Lock() { m.mu.Lock() }

// Unlock releases Lock.
func (m *Maintainer) Unlock() { m.mu.Unlock() }

// Close releases the maintainer's WAL retention pin, so a stopped
// follower holds no segments against checkpoints.
func (m *Maintainer) Close() { m.store.RetainWALFrom(0) }

// resync rebuilds the entire warehouse from a fresh store snapshot and
// moves the tail position to the snapshot's LSN. It is the bootstrap
// path and the recovery path for tail gaps and apply failures.
func (m *Maintainer) resync() error {
	// Pin retention at the durable LSN before cutting the snapshot:
	// reading the LSN and pinning it as two steps would leave a window in
	// which a checkpoint sweeps the snapshot's position, sending the
	// resync meant to heal a gap straight into the next one. The
	// snapshot's LSN is at or above the pin, so the pin only moves up
	// afterwards. A store without a WAL snapshots at the zero LSN; that
	// happens at bootstrap only, as its Refresh fails reading the tail
	// before it could resync.
	if _, err := m.store.PinWALAtDurable(oltp.TailerPin); err != nil && !errors.Is(err, oltp.ErrNoWAL) {
		return err
	}
	snap, err := m.store.SnapshotWithLSN()
	if err != nil {
		return err
	}
	if m.cfg.Log != nil {
		m.cfg.Log.Printf("refresh: resync snapshot: %d rows at LSN %v", snap.Table.Len(), snap.LSN)
	}
	// The mirror keeps the snapshot's rows, which are the store's own
	// committed rows and never modified in place.
	byPatient := make(map[value.Value]map[oltp.RowID]oltp.Row)
	patientOf := make(map[oltp.RowID]value.Value, len(snap.IDs))
	patients := snap.Table.ColumnAt(m.patientIdx)
	for i, id := range snap.IDs {
		p := patients.Value(i)
		rows := byPatient[p]
		if rows == nil {
			rows = make(map[oltp.RowID]oltp.Row)
			byPatient[p] = rows
		}
		rows[id] = snap.Rows[i]
		patientOf[id] = p
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.byPatient = byPatient
	m.patientOf = patientOf
	if err := m.rebuildLocked(snap.Table); err != nil {
		return err
	}
	m.appliedCommits = snap.Commits
	m.appliedEvents = 0
	m.pos = snap.LSN
	m.lastApplyNano = time.Now().UnixNano()
	m.store.RetainWALFrom(snap.LSN.Seq)
	return nil
}

// rebuildLocked runs the full pipeline over flat source rows (a
// snapshot table, or nil to materialise the mirror), builds a fresh
// schema and engine, and reindexes facts by patient. Caller holds m.mu.
func (m *Maintainer) rebuildLocked(src *storage.Table) error {
	if src == nil {
		var err error
		src, err = m.mirrorTable(nil)
		if err != nil {
			return err
		}
	}
	flat, err := m.cfg.Pipeline.Run(src)
	if err != nil {
		return err
	}
	schema, err := m.cfg.Builder.Build(flat)
	if err != nil {
		return err
	}
	engine := cube.NewEngine(schema)
	patients, err := flat.Column(patientCol)
	if err != nil {
		return err
	}
	facts := make(map[value.Value][]int)
	for j := 0; j < flat.Len(); j++ {
		p := patients.Value(j)
		facts[p] = append(facts[p], j)
	}
	m.schema, m.engine, m.facts = schema, engine, facts
	if m.cfg.OnRebuild != nil {
		if err := m.cfg.OnRebuild(engine, schema, flat); err != nil {
			return err
		}
	}
	return nil
}

// mirrorTable materialises mirror rows as a flat table in RowID
// order — all patients when affected is nil, else just those patients.
// Only the consumer goroutine touches the mirror maps, so no lock is
// needed (resync swaps them wholesale under the write lock).
func (m *Maintainer) mirrorTable(affected map[value.Value]struct{}) (*storage.Table, error) {
	var ids []oltp.RowID
	if affected == nil {
		ids = make([]oltp.RowID, 0, len(m.patientOf))
		for id := range m.patientOf {
			ids = append(ids, id)
		}
	} else {
		for p := range affected {
			for id := range m.byPatient[p] {
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids)
	rows := make([]oltp.Row, len(ids))
	for i, id := range ids {
		rows[i] = m.byPatient[m.patientOf[id]][id]
	}
	return storage.FromRows(m.store.Schema(), rows)
}

// Refresh consumes and applies one batch of committed transactions,
// returning how many it applied (0 when caught up). A tail gap or an
// apply failure heals by full resync; only unrecoverable errors (the
// store closed, the resync itself failing) surface. With a breaker
// configured, refreshes fast-fail while the breaker is open or the
// store is unhealthy, and outcomes feed its failure counter.
func (m *Maintainer) Refresh() (int, error) {
	b := m.cfg.Breaker
	if b == nil {
		return m.refresh()
	}
	if err := b.Allow(); err != nil {
		return 0, err
	}
	n, err := m.refresh()
	if err != nil {
		b.RecordFailure()
	} else {
		b.RecordSuccess()
	}
	return n, err
}

func (m *Maintainer) refresh() (int, error) {
	txs, next, err := m.store.TailWAL(m.pos, m.maxBatch)
	if err != nil {
		if errors.Is(err, oltp.ErrTailGap) {
			metricGaps.Inc()
			return 0, m.forceResync()
		}
		return 0, err
	}
	if len(txs) == 0 {
		// Nothing committed, but the tail may have passed rolled-back
		// records; move past them so the next read starts at the end.
		if next != m.pos {
			m.mu.Lock()
			m.pos = next
			m.mu.Unlock()
			m.store.RetainWALFrom(next.Seq)
		}
		return 0, nil
	}
	metricFeedBatches.Inc()
	metricFeedTxs.Add(uint64(len(txs)))
	events := 0
	for _, tx := range txs {
		events += len(tx.Changes)
	}
	metricFeedEvents.Add(uint64(events))

	start := time.Now()
	if err := m.apply(txs, next); err != nil {
		// The mirror may be ahead of the warehouse; resync restores
		// consistency and resets the position, so nothing is lost.
		if rerr := m.forceResync(); rerr != nil {
			return 0, errors.Join(err, rerr)
		}
		return 0, nil
	}
	m.store.RetainWALFrom(next.Seq)
	metricBatches.Inc()
	metricTxApplied.Add(uint64(len(txs)))
	metricBatchSeconds.ObserveSince(start)
	m.updateLagGauge()
	return len(txs), nil
}

func (m *Maintainer) forceResync() error {
	if err := m.resync(); err != nil {
		return err
	}
	m.resyncs++
	metricResyncs.Inc()
	m.updateLagGauge()
	return nil
}

// apply folds one batch into the mirror and the warehouse and, on
// success, advances the tail position to next.
func (m *Maintainer) apply(txs []oltp.CommittedTx, next oltp.WALCursor) error {
	// 1. Update the mirror and collect the affected patients (old image's
	// patient and, for inserts/updates, the new image's).
	affected := make(map[value.Value]struct{})
	events := 0
	for _, tx := range txs {
		for _, ch := range tx.Changes {
			if ch.Op == oltp.ChangeMeta {
				continue // side-channel records carry no fact rows
			}
			events++
			if old, ok := m.patientOf[ch.ID]; ok {
				affected[old] = struct{}{}
				delete(m.byPatient[old], ch.ID)
				if len(m.byPatient[old]) == 0 {
					delete(m.byPatient, old)
				}
				delete(m.patientOf, ch.ID)
			}
			if ch.Op == oltp.ChangeDelete {
				continue
			}
			p := ch.Row[m.patientIdx]
			affected[p] = struct{}{}
			rows := m.byPatient[p]
			if rows == nil {
				rows = make(map[oltp.RowID]oltp.Row)
				m.byPatient[p] = rows
			}
			rows[ch.ID] = ch.Row
			m.patientOf[ch.ID] = p
		}
	}

	// 2. Re-derive the affected patients through the full pipeline.
	sub, err := m.mirrorTable(affected)
	if err != nil {
		return err
	}
	delta, err := m.cfg.Pipeline.Run(sub)
	if err != nil {
		return err
	}
	patients, err := delta.Column(patientCol)
	if err != nil {
		return err
	}

	// 3. Swap the patients' facts under the write lock: tombstone old,
	// append re-derived, fold the delta into the engine's caches.
	m.mu.Lock()
	defer m.mu.Unlock()
	fact := m.schema.Fact()
	var retired []int
	for p := range affected {
		retired = append(retired, m.facts[p]...)
	}
	slices.Sort(retired)
	for _, i := range retired {
		if err := fact.Retire(i); err != nil {
			return err
		}
	}
	oldLen := fact.Len()
	if delta.Len() > 0 {
		if err := m.cfg.Builder.Append(m.schema, delta); err != nil {
			return err
		}
	}
	for p := range affected {
		delete(m.facts, p)
	}
	for j := 0; j < delta.Len(); j++ {
		p := patients.Value(j)
		m.facts[p] = append(m.facts[p], oldLen+j)
	}
	if _, err := m.engine.ApplyDelta(cube.Delta{Retired: retired, Appended: delta.Len()}); err != nil {
		return err
	}
	metricRowsTombstoned.Add(uint64(len(retired)))
	metricRowsAppended.Add(uint64(delta.Len()))

	// 4. Compact when tombstones dominate the fact table.
	if m.compactFrac > 0 && fact.Len() >= m.minCompact &&
		float64(fact.RetiredCount()) > m.compactFrac*float64(fact.Len()) {
		if err := m.rebuildLocked(nil); err != nil {
			return err
		}
		m.compactions++
		metricCompactions.Inc()
	}

	m.appliedCommits += uint64(len(txs))
	m.appliedEvents += uint64(events)
	m.pos = next
	m.lastApplyNano = time.Now().UnixNano()
	return nil
}

// Run follows the store until ctx is done: apply every available batch,
// then wait for a commit signal or the poll interval. A failed refresh
// backs off (minBackoff doubling to maxBackoff, reset by a success) and
// the loop keeps going — a follower should survive transient filesystem
// trouble without burning a CPU while the breaker fast-fails. A store
// without a WAL has nothing to follow: Run returns oltp.ErrNoWAL at once.
func (m *Maintainer) Run(ctx context.Context) error {
	commits := m.store.SubscribeCommits()
	defer m.store.UnsubscribeCommits(commits)
	var backoff time.Duration
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := m.Refresh()
		if errors.Is(err, oltp.ErrNoWAL) {
			return err // nothing to follow
		}
		wake, wait := commits, pollInterval
		if err != nil {
			// Back off on the timer alone: commits arriving while the
			// store is sick must not cut the wait short.
			backoff = min(max(2*backoff, minBackoff), maxBackoff)
			wake, wait = nil, backoff
		} else {
			backoff = 0
			if n > 0 {
				continue // drain before sleeping
			}
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
		case <-wake:
		case <-timer.C:
		}
		timer.Stop()
	}
}

// Freshness reports warehouse staleness relative to the store.
func (m *Maintainer) Freshness() Freshness {
	commits, lastCommit := m.store.CommitStats()
	_, ckptBytes := m.store.CheckpointStats()
	durable, _ := m.store.DurableLSN() // zero cursor if the store closed under us
	m.mu.RLock()
	defer m.mu.RUnlock()
	f := Freshness{
		AppliedLSN:         m.pos,
		DurableLSN:         durable,
		AppliedCommits:     m.appliedCommits,
		StoreCommits:       commits,
		AppliedEvents:      m.appliedEvents,
		FactRows:           m.schema.Fact().Len(),
		LiveRows:           m.schema.Fact().LiveLen(),
		Compactions:        m.compactions,
		Resyncs:            m.resyncs,
		LastApplyUnixNano:  m.lastApplyNano,
		LastCommitUnixNano: lastCommit,
		CheckpointBytes:    ckptBytes,
	}
	if commits > m.appliedCommits {
		f.LagTx = commits - m.appliedCommits
		if m.lastApplyNano > 0 {
			f.LagSeconds = time.Since(time.Unix(0, m.lastApplyNano)).Seconds()
		}
	}
	metricLag.Set(float64(f.LagTx))
	return f
}

func (m *Maintainer) updateLagGauge() {
	commits, _ := m.store.CommitStats()
	m.mu.RLock()
	applied := m.appliedCommits
	m.mu.RUnlock()
	if commits > applied {
		metricLag.Set(float64(commits - applied))
	} else {
		metricLag.Set(0)
	}
}
