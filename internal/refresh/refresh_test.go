// Package refresh_test checks the incremental maintainer against the
// gold standard: after any interleaving of commits and refresh batches,
// every query on the incrementally maintained engine must agree
// cell-for-cell with a warehouse rebuilt from scratch off the same
// store. It lives in an external test package so it can drive the real
// DiScRi pipeline from internal/core (core imports refresh, so an
// internal test would cycle).
package refresh_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/experiments"
	"github.com/ddgms/ddgms/internal/govern"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/refresh"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// queryBattery is the equivalence check set: the paper-figure queries
// (distinct-patient measures, never latticed) plus additive count, sum
// and avg queries that exercise the maintained lattice entries.
func queryBattery() []cube.Query {
	return []cube.Query{
		experiments.Fig4Query(),
		experiments.Fig5Query(),
		experiments.Fig6Query(),
		{Rows: []cube.AttrRef{core.RefGender}, Measure: cube.MeasureRef{Agg: storage.CountAgg}},
		{Rows: []cube.AttrRef{core.RefAgeBand10}, Cols: []cube.AttrRef{core.RefGender},
			Measure: cube.MeasureRef{Agg: storage.CountAgg}},
		{Rows: []cube.AttrRef{core.RefDiabetes}, Measure: cube.MeasureRef{Agg: storage.AvgAgg, Column: "FBG"}},
		{Rows: []cube.AttrRef{core.RefFBGBand}, Cols: []cube.AttrRef{core.RefGender},
			Measure: cube.MeasureRef{Agg: storage.SumAgg, Column: "FBG"}},
		{Rows: []cube.AttrRef{{Dim: "FastingBloods", Attr: "FBGTrend"}}, Measure: cube.MeasureRef{Agg: storage.CountAgg}},
		{Rows: []cube.AttrRef{core.RefVisitNo}, Measure: cube.MeasureRef{Agg: storage.CountAgg}},
	}
}

// cellMap flattens a cell set into label-keyed cells, so comparison is
// insensitive to member interning order (retired members linger in the
// maintained schema's dictionaries but must carry no live cells).
func cellMap(cs *cube.CellSet) map[[2]string]value.Value {
	out := make(map[[2]string]value.Value)
	for i := 0; i < cs.Rows(); i++ {
		for j := 0; j < cs.Columns(); j++ {
			out[[2]string{cs.RowLabel(i), cs.ColLabel(j)}] = cs.Cell(i, j)
		}
	}
	return out
}

// maintained is a Maintainer plus the engine it last installed, which
// it hands over through OnRebuild as it does to the serving layer. Read
// engine under RLock.
type maintained struct {
	*refresh.Maintainer
	engine *cube.Engine
}

// newMaintained bootstraps a Maintainer, chaining cfg.OnRebuild after
// the engine capture.
func newMaintained(store *oltp.Store, cfg refresh.Config) (*maintained, error) {
	mt := &maintained{}
	next := cfg.OnRebuild
	cfg.OnRebuild = func(e *cube.Engine, s *star.Schema, flat *storage.Table) error {
		mt.engine = e
		if next != nil {
			return next(e, s, flat)
		}
		return nil
	}
	m, err := refresh.New(store, cfg)
	mt.Maintainer = m
	return mt, err
}

// assertCaughtUpEquivalent rebuilds a reference warehouse from scratch
// off the store's current snapshot and compares every battery query.
func assertCaughtUpEquivalent(t *testing.T, label string, m *maintained, store *oltp.Store) {
	t.Helper()
	snap, err := store.Snapshot()
	if err != nil {
		t.Fatalf("%s: Snapshot: %v", label, err)
	}
	flat, err := core.NewDiScRiPipeline().Run(snap)
	if err != nil {
		t.Fatalf("%s: reference pipeline: %v", label, err)
	}
	refSchema, err := core.NewDiScRiBuilder().Build(flat)
	if err != nil {
		t.Fatalf("%s: reference build: %v", label, err)
	}
	ref := cube.NewEngine(refSchema, cube.WithAggregateCache(false))

	m.RLock()
	defer m.RUnlock()
	for qi, q := range queryBattery() {
		got, err := m.engine.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: maintained query %d: %v", label, qi, err)
		}
		want, err := ref.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: reference query %d: %v", label, qi, err)
		}
		gm, wm := cellMap(got), cellMap(want)
		if len(gm) != len(wm) {
			t.Fatalf("%s: query %d (%s): %d cells maintained vs %d rebuilt",
				label, qi, q.Measure, len(gm), len(wm))
		}
		for k, w := range wm {
			g, ok := gm[k]
			if !ok {
				t.Fatalf("%s: query %d (%s): cell %v missing from maintained engine", label, qi, q.Measure, k)
			}
			if g.IsNA() && w.IsNA() {
				continue
			}
			if g.Equal(w) {
				continue
			}
			// Incremental merge/unmerge sums floats in a different order
			// than a cold scan, so sum/avg cells may differ in the last
			// ULP; integer cells (counts, the paper figures) stay exact.
			if g.Kind() == value.FloatKind && w.Kind() == value.FloatKind && w.Float() != 0 {
				if rel := (g.Float() - w.Float()) / w.Float(); rel < 1e-9 && rel > -1e-9 {
					continue
				}
			}
			t.Fatalf("%s: query %d (%s): cell %v = %v maintained, %v rebuilt",
				label, qi, q.Measure, k, g, w)
		}
	}
}

// interleaveEnv is one randomized-run fixture.
type interleaveEnv struct {
	store    *oltp.Store
	m        *maintained
	raw      *storage.Table
	next     int // next unstreamed cohort row
	live     []oltp.RowID
	fbgIdx   int
	rng      *rand.Rand
	commits  int
	refreshN int
}

func newInterleaveEnv(t *testing.T, seed int64, patients int, cfgTweak func(*refresh.Config)) *interleaveEnv {
	t.Helper()
	dcfg := discri.DefaultConfig()
	dcfg.Patients = patients
	dcfg.Seed = seed
	raw, err := discri.Generate(dcfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	// Small segments and checkpoints so the run crosses rotation and
	// checkpoint boundaries; the maintainer's retention pin must keep the
	// feed gap-free throughout.
	store, err := oltp.OpenWith(filepath.Join(dir, "store"), raw.Schema(),
		oltp.Options{SegmentBytes: 4 << 10, CheckpointBytes: 16 << 10})
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	t.Cleanup(func() { store.Close() })

	// Seed the store with the first third of the cohort, splitting
	// patients across the snapshot/stream boundary.
	third := raw.Len() / 3
	seedTbl, err := storage.NewTable(raw.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < third; i++ {
		if err := seedTbl.AppendRow(raw.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.LoadTable(seedTbl); err != nil {
		t.Fatalf("LoadTable: %v", err)
	}

	cfg := refresh.Config{
		Pipeline:   core.NewDiScRiPipeline(),
		Builder:    core.NewDiScRiBuilder(),
		MaxBatchTx: 8,
	}
	if cfgTweak != nil {
		cfgTweak(&cfg)
	}
	m, err := newMaintained(store, cfg)
	if err != nil {
		t.Fatalf("refresh.New: %v", err)
	}
	t.Cleanup(m.Close)

	fbgIdx, ok := raw.Schema().Lookup("FBG")
	if !ok {
		t.Fatal("cohort schema has no FBG column")
	}
	env := &interleaveEnv{
		store: store, m: m, raw: raw, next: third,
		fbgIdx: fbgIdx, rng: rand.New(rand.NewSource(seed * 7919)),
	}
	// Seeded rows are update/delete candidates too.
	tx := store.Begin()
	tx.Scan(func(id oltp.RowID, _ oltp.Row) bool {
		env.live = append(env.live, id)
		return true
	})
	tx.Rollback()
	return env
}

func (env *interleaveEnv) commit(t *testing.T, mutate func(tx *oltp.Tx) error) {
	t.Helper()
	tx := env.store.Begin()
	if err := mutate(tx); err != nil {
		tx.Rollback()
		t.Fatalf("mutate: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	env.commits++
}

// insertNext commits the next unstreamed cohort row in its own
// transaction.
func (env *interleaveEnv) insertNext(t *testing.T) {
	t.Helper()
	env.commit(t, func(tx *oltp.Tx) error {
		_, err := tx.Insert(oltp.Row(env.raw.Row(env.next)))
		env.next++
		return err
	})
}

// updateFBG commits a new FBG reading for row id (a no-op commit when an
// earlier action deleted it).
func (env *interleaveEnv) updateFBG(t *testing.T, id oltp.RowID) {
	t.Helper()
	env.commit(t, func(tx *oltp.Tx) error {
		row, ok := tx.Get(id)
		if !ok {
			return nil
		}
		upd := append(oltp.Row(nil), row...)
		upd[env.fbgIdx] = value.Float(3 + env.rng.Float64()*10)
		return tx.Update(id, upd)
	})
}

// step performs one random action: insert a chunk of cohort rows,
// update a row's FBG, delete a row, refresh, or query (warming the
// lattice so later deltas must maintain real entries).
func (env *interleaveEnv) step(t *testing.T) {
	t.Helper()
	switch p := env.rng.Float64(); {
	case p < 0.45 && env.next < env.raw.Len():
		n := 1 + env.rng.Intn(8)
		env.commit(t, func(tx *oltp.Tx) error {
			for i := 0; i < n && env.next < env.raw.Len(); i++ {
				id, err := tx.Insert(oltp.Row(env.raw.Row(env.next)))
				if err != nil {
					return err
				}
				env.live = append(env.live, id)
				env.next++
			}
			return nil
		})
	case p < 0.60 && len(env.live) > 0:
		env.updateFBG(t, env.live[env.rng.Intn(len(env.live))])
	case p < 0.70 && len(env.live) > 8:
		i := env.rng.Intn(len(env.live))
		id := env.live[i]
		env.live = append(env.live[:i], env.live[i+1:]...)
		env.commit(t, func(tx *oltp.Tx) error { return tx.Delete(id) })
	case p < 0.90:
		if _, err := env.m.Refresh(); err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		env.refreshN++
	default:
		env.m.RLock()
		_, err := env.m.engine.ExecuteCtx(context.Background(), cube.Query{
			Rows: []cube.AttrRef{core.RefGender}, Measure: cube.MeasureRef{Agg: storage.CountAgg}})
		env.m.RUnlock()
		if err != nil {
			t.Fatalf("warm query: %v", err)
		}
	}
}

func (env *interleaveEnv) drain(t *testing.T) {
	t.Helper()
	for {
		n, err := env.m.Refresh()
		if err != nil {
			t.Fatalf("drain Refresh: %v", err)
		}
		if n == 0 {
			return
		}
	}
}

// TestRefreshEquivalenceRandomInterleavings is the acceptance property:
// randomized interleavings of inserts, updates, deletes, refresh
// batches and lattice-warming queries, checked for cell-identity
// against a from-scratch rebuild at several drain points.
func TestRefreshEquivalenceRandomInterleavings(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			env := newInterleaveEnv(t, seed, 40, nil)
			for step := 1; step <= 120; step++ {
				env.step(t)
				if step%40 == 0 {
					env.drain(t)
					assertCaughtUpEquivalent(t, fmt.Sprintf("step %d", step), env.m, env.store)
				}
			}
			env.drain(t)
			assertCaughtUpEquivalent(t, "final", env.m, env.store)
			if env.commits == 0 || env.refreshN == 0 {
				t.Fatalf("degenerate interleaving: %d commits, %d refreshes", env.commits, env.refreshN)
			}
		})
	}
}

// TestRefreshRestartRebootstrap closes the maintainer mid-stream (a
// process restart), commits more while it is down, and checks the
// successor bootstraps a consistent warehouse and picks up the stream.
func TestRefreshRestartRebootstrap(t *testing.T) {
	env := newInterleaveEnv(t, 11, 30, nil)
	for i := 0; i < 30; i++ {
		env.step(t)
	}
	env.drain(t)
	posBefore := env.m.Freshness().AppliedLSN
	if posBefore.IsZero() {
		t.Fatal("maintainer has no position after draining")
	}
	env.m.Close()

	// Commits while the follower is down.
	for i := 0; i < 10 && env.next < env.raw.Len(); i++ {
		env.insertNext(t)
	}

	m2, err := newMaintained(env.store, refresh.Config{
		Pipeline: core.NewDiScRiPipeline(),
		Builder:  core.NewDiScRiBuilder(),
	})
	if err != nil {
		t.Fatalf("refresh.New after restart: %v", err)
	}
	defer m2.Close()
	// Bootstrap is from a fresh snapshot, so the successor is already
	// caught up with the downtime commits.
	f := m2.Freshness()
	if f.LagTx != 0 || f.AppliedCommits != f.StoreCommits {
		t.Fatalf("successor not caught up after bootstrap: %+v", f)
	}
	if f.AppliedLSN.Less(posBefore) {
		t.Fatalf("successor position %s did not advance past predecessor's %s", f.AppliedLSN, posBefore)
	}
	assertCaughtUpEquivalent(t, "after restart", m2, env.store)

	// And it keeps following: stream a few more and drain.
	for i := 0; i < 5 && env.next < env.raw.Len(); i++ {
		env.insertNext(t)
	}
	for {
		n, err := m2.Refresh()
		if err != nil {
			t.Fatalf("Refresh after restart: %v", err)
		}
		if n == 0 {
			break
		}
	}
	assertCaughtUpEquivalent(t, "after restart and stream", m2, env.store)
}

// TestRefreshCompaction drives tombstones past the compaction threshold
// with repeated updates to the same patients and checks the rebuild
// reclaims them without breaking equivalence.
func TestRefreshCompaction(t *testing.T) {
	env := newInterleaveEnv(t, 21, 20, func(cfg *refresh.Config) {
		cfg.CompactFraction = 0.2
		cfg.MinCompactRows = 16
	})
	env.drain(t)
	for round := 0; round < 40; round++ {
		env.updateFBG(t, env.live[env.rng.Intn(len(env.live))])
		env.drain(t)
	}
	f := env.m.Freshness()
	if f.Compactions == 0 {
		t.Fatalf("no compaction after 40 churn rounds: %+v", f)
	}
	if f.FactRows > 2*f.LiveRows {
		t.Fatalf("tombstones still dominate after compaction: %d fact rows, %d live", f.FactRows, f.LiveRows)
	}
	assertCaughtUpEquivalent(t, "after compaction", env.m, env.store)
}

// TestRefreshRangeRuleKeepsStoreRow commits an attendance whose FBG the
// pipeline's range rule nulls inside a batch. The pipeline shares every
// column it does not write with the batch's mirror rows and copies the
// ruled column before nulling it, so the warehouse must see NA while the
// store's committed row keeps the reading as committed.
func TestRefreshRangeRuleKeepsStoreRow(t *testing.T) {
	env := newInterleaveEnv(t, 13, 30, nil)
	env.drain(t)
	row := oltp.Row(env.raw.Row(env.next))
	env.next++
	row[env.fbgIdx] = value.Float(99) // outside the FBG rule's [2, 30]
	var id oltp.RowID
	env.commit(t, func(tx *oltp.Tx) error {
		var err error
		id, err = tx.Insert(row)
		return err
	})
	env.drain(t)

	// The new attendance has the highest row id, so the batch appended
	// it last.
	env.m.RLock()
	fact := env.m.engine.Schema().Fact()
	fbg, err := fact.Measure("FBG")
	if err != nil {
		env.m.RUnlock()
		t.Fatal(err)
	}
	last := fact.Len() - 1
	alive, inWarehouse := fact.Alive(last), fbg.Value(last)
	env.m.RUnlock()
	if !alive || !inWarehouse.IsNA() {
		t.Errorf("warehouse FBG of the new attendance = %v (alive %v), want NA", inWarehouse, alive)
	}

	tx := env.store.Begin()
	stored, ok := tx.Get(id)
	tx.Rollback()
	if !ok {
		t.Fatalf("row %d missing from the store", id)
	}
	if v := stored[env.fbgIdx]; v.IsNA() || v.Float() != 99 {
		t.Errorf("store FBG after refresh = %v, want 99 as committed", v)
	}
	assertCaughtUpEquivalent(t, "after a range-ruled attendance", env.m, env.store)
}

// gapResync severs the maintainer's retention pin, pushes the rest of
// the raw rows through a checkpoint so the unread tail is swept, and
// refreshes across the gap: exactly one resync must heal it.
func gapResync(t *testing.T, env *interleaveEnv) {
	t.Helper()
	env.store.RetainWALFrom(0)
	for env.next < env.raw.Len() {
		env.insertNext(t)
	}
	if err := env.store.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := env.m.Refresh(); err != nil {
		t.Fatalf("Refresh across gap: %v", err)
	}
	if f := env.m.Freshness(); f.Resyncs != 1 {
		t.Fatalf("gap triggered %d resyncs, want 1", f.Resyncs)
	}
}

// TestRefreshGapResync severs the maintainer's retention pin so a
// checkpoint truncates unread history, and checks Refresh heals by full
// resync instead of failing or serving stale data.
func TestRefreshGapResync(t *testing.T) {
	env := newInterleaveEnv(t, 31, 25, nil)
	env.drain(t)
	gapResync(t, env)
	env.drain(t)
	assertCaughtUpEquivalent(t, "after gap resync", env.m, env.store)
}

// TestRefreshGapResyncTailsPostSnapshot checks where a gap resync
// leaves the tail position: at the resync snapshot's LSN, so the next
// batch is exactly the commits after the snapshot, with no further gap.
func TestRefreshGapResyncTailsPostSnapshot(t *testing.T) {
	env := newInterleaveEnv(t, 33, 25, nil)
	env.drain(t)
	gapResync(t, env)
	if f := env.m.Freshness(); f.LagTx != 0 {
		t.Fatalf("resync left lag behind the snapshot: %+v", f)
	}

	// The resync moved the position to the snapshot: the next batch is
	// exactly the post-snapshot commits, with no further resync.
	env.updateFBG(t, env.live[0])
	env.updateFBG(t, env.live[1])
	if n, err := env.m.Refresh(); err != nil || n != 2 {
		t.Fatalf("post-resync Refresh = (%d, %v), want the 2 post-snapshot commits", n, err)
	}
	if f := env.m.Freshness(); f.Resyncs != 1 || f.LagTx != 0 {
		t.Fatalf("post-resync tail: %+v, want 1 resync and no lag", f)
	}
	assertCaughtUpEquivalent(t, "after post-resync tail", env.m, env.store)
}

// TestRefreshRetainsSegmentsAcrossCheckpoints checks a lagging
// maintainer never hits a gap: its retention pin keeps unread segments
// alive through checkpoint sweeps however far it falls behind.
func TestRefreshRetainsSegmentsAcrossCheckpoints(t *testing.T) {
	env := newInterleaveEnv(t, 51, 25, func(cfg *refresh.Config) { cfg.MaxBatchTx = 1 })
	env.drain(t)
	applied := env.m.Freshness().AppliedCommits

	streamed := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 10 && env.next < env.raw.Len(); i++ {
			env.insertNext(t)
			streamed++
		}
		if err := env.store.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	env.drain(t)
	f := env.m.Freshness()
	if f.Resyncs != 0 {
		t.Fatalf("lagging maintainer hit a gap despite retention: %d resyncs", f.Resyncs)
	}
	if got := f.AppliedCommits - applied; got != uint64(streamed) {
		t.Fatalf("lagging maintainer applied %d commits, want the %d streamed", got, streamed)
	}
	assertCaughtUpEquivalent(t, "after lagging drain", env.m, env.store)
}

// TestRefreshResyncPinClosesSnapshotRace checks that a resync pins
// retention before it cuts its snapshot: a checkpoint landing between
// the snapshot and the rebuild's end must not sweep the snapshot's
// position, or the resync meant to heal a gap leads straight into the
// next one.
func TestRefreshResyncPinClosesSnapshotRace(t *testing.T) {
	var env *interleaveEnv
	pressure := false
	env = newInterleaveEnv(t, 61, 30, func(cfg *refresh.Config) {
		// OnRebuild runs after the snapshot, before the resync moves the
		// pin up to it: commit and checkpoint right there.
		cfg.OnRebuild = func(*cube.Engine, *star.Schema, *storage.Table) error {
			if !pressure {
				return nil
			}
			env.updateFBG(t, env.live[env.rng.Intn(len(env.live))])
			return env.store.Checkpoint()
		}
	})
	env.drain(t)
	for round := 1; round <= 20; round++ {
		// Sever the pin and sweep, so the next Refresh must resync.
		env.store.RetainWALFrom(0)
		env.updateFBG(t, env.live[env.rng.Intn(len(env.live))])
		if err := env.store.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		pressure = true
		if _, err := env.m.Refresh(); err != nil {
			t.Fatalf("round %d: Refresh across gap: %v", round, err)
		}
		pressure = false
		if got := env.m.Freshness().Resyncs; got != uint64(round) {
			t.Fatalf("round %d: %d resyncs before the post-resync tail, want %d", round, got, round)
		}
		env.drain(t)
		if got := env.m.Freshness().Resyncs; got != uint64(round) {
			t.Fatalf("round %d: pinned resync hit a gap (%d resyncs, want %d)", round, got, round)
		}
	}
	assertCaughtUpEquivalent(t, "after pinned resyncs", env.m, env.store)
}

// TestRefreshRunBacksOffWhileFailing runs the follow loop against a
// breaker whose health probe always fails: the loop must pace its
// retries instead of spinning on the fast-fails.
func TestRefreshRunBacksOffWhileFailing(t *testing.T) {
	var probes atomic.Int64
	b := govern.NewBreaker(govern.BreakerConfig{
		Name: "refresh-spin-test",
		Health: func() error {
			probes.Add(1)
			return fmt.Errorf("wal poisoned")
		},
	})
	env := newInterleaveEnv(t, 71, 10, func(cfg *refresh.Config) { cfg.Breaker = b })

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := env.m.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want the context deadline", err)
	}
	// 10 ms doubling fits 5 attempts in 200 ms; allow slack for a slow
	// scheduler, but not a spin.
	if n := probes.Load(); n == 0 || n > 20 {
		t.Fatalf("Run made %d refresh attempts in 200ms against a failing store, want 1..20", n)
	}
}

// TestRefreshFreshnessBytes checks the checkpoint size field of the
// /freshness payload: zero before the store's first checkpoint, the
// checkpoint's size after it.
func TestRefreshFreshnessBytes(t *testing.T) {
	env := newInterleaveEnv(t, 47, 20, nil)
	env.drain(t)
	f := env.m.Freshness()
	if f.CheckpointBytes != 0 {
		t.Fatalf("checkpoint_bytes = %d before any checkpoint, want 0", f.CheckpointBytes)
	}
	if err := env.store.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	f = env.m.Freshness()
	if f.CheckpointBytes <= 0 {
		t.Fatalf("checkpoint_bytes = %d after checkpoint, want > 0", f.CheckpointBytes)
	}
}

// TestRefreshFreshnessLag checks the /freshness payload arithmetic:
// unapplied commits surface as transaction lag and draining clears it.
func TestRefreshFreshnessLag(t *testing.T) {
	env := newInterleaveEnv(t, 41, 20, nil)
	env.drain(t)
	f := env.m.Freshness()
	if f.LagTx != 0 || f.LagSeconds != 0 {
		t.Fatalf("lag after drain: %+v", f)
	}
	for i := 0; i < 4 && env.next < env.raw.Len(); i++ {
		env.insertNext(t)
	}
	f = env.m.Freshness()
	if f.LagTx != 4 {
		t.Fatalf("lag_tx = %d after 4 unapplied commits, want 4", f.LagTx)
	}
	if f.StoreCommits != f.AppliedCommits+4 {
		t.Fatalf("commit accounting off: %+v", f)
	}
	env.drain(t)
	f = env.m.Freshness()
	if f.LagTx != 0 || f.AppliedCommits != f.StoreCommits {
		t.Fatalf("lag not cleared by drain: %+v", f)
	}
	if f.AppliedLSN != f.DurableLSN {
		t.Fatalf("applied LSN %s trails durable %s after drain", f.AppliedLSN, f.DurableLSN)
	}
}

// TestRefreshBreakerGates: a breaker watching store health fast-fails
// refresh batches while the dependency is sick, without moving the tail
// position — the deferred batch applies intact once health returns.
func TestRefreshBreakerGates(t *testing.T) {
	var mu sync.Mutex
	var healthErr error
	b := govern.NewBreaker(govern.BreakerConfig{
		Name: "refresh-test",
		Health: func() error {
			mu.Lock()
			defer mu.Unlock()
			return healthErr
		},
	})
	env := newInterleaveEnv(t, 11, 30, func(cfg *refresh.Config) { cfg.Breaker = b })

	if _, err := env.m.Refresh(); err != nil {
		t.Fatalf("healthy Refresh: %v", err)
	}
	env.insertNext(t)
	mu.Lock()
	healthErr = fmt.Errorf("wal poisoned")
	mu.Unlock()
	if _, err := env.m.Refresh(); !errors.Is(err, govern.ErrBreakerOpen) {
		t.Fatalf("sick Refresh error = %v, want ErrBreakerOpen", err)
	}
	lag := env.m.Freshness().LagTx
	if lag != 1 {
		t.Fatalf("fast-failed refresh moved the position: lag_tx = %d, want 1", lag)
	}
	mu.Lock()
	healthErr = nil
	mu.Unlock()
	n, err := env.m.Refresh()
	if err != nil || n == 0 {
		t.Fatalf("recovered Refresh = (%d, %v), want the deferred batch applied", n, err)
	}
	if f := env.m.Freshness(); f.LagTx != 0 {
		t.Fatalf("lag_tx = %d after recovery, want 0", f.LagTx)
	}
}
