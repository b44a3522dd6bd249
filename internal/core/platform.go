// Package core implements the DD-DGMS platform: the paper's Data-Driven
// Decision Guidance Management System. It wires the substrates into the
// closed loop of Fig 2 — data acquisition into the transactional store,
// transformation through the ETL pipeline, loading into the dimensional
// warehouse, and the decision-support features on top (OLTP/OLAP
// reporting, MDX, prediction, visualisation-ready cell sets, decision
// optimisation, data analytics and the knowledge base) — with user
// feedback flowing back into the warehouse as new dimensions.
package core

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/etl"
	"github.com/ddgms/ddgms/internal/kb"
	"github.com/ddgms/ddgms/internal/mdx"
	"github.com/ddgms/ddgms/internal/mining"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/optimize"
	"github.com/ddgms/ddgms/internal/predict"
	"github.com/ddgms/ddgms/internal/refresh"
	"github.com/ddgms/ddgms/internal/repl"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// Config parameterises a platform.
type Config struct {
	// DataDir is where the OLTP write-ahead log lives; empty means a
	// purely in-memory store.
	DataDir string
	// CubeName is the name MDX queries address in FROM; default
	// "MedicalMeasures".
	CubeName string
	// PromotionThreshold is the knowledge-base promotion evidence count;
	// 0 means the kb default.
	PromotionThreshold int
	// Log, when set, receives store checkpoint and warehouse resync size
	// lines. Nil disables that logging.
	Log *log.Logger
}

// Platform is one DD-DGMS instance. Build one with New, Acquire the raw
// records (or OpenStore a durable store), then StartFollow to transform
// and load the warehouse; the decision-support features follow.
type Platform struct {
	cfg Config

	store *oltp.Store
	kbase *kb.Base

	// follower owns the warehouse (nil until StartFollow, see follow.go):
	// its rebuild hook sets the fields below, guarded by its lock.
	follower *refresh.Maintainer
	flat     *storage.Table
	engine   *cube.Engine
	eval     *mdx.Evaluator
	grafts   []func(*star.Schema) error // feedback dimensions, re-grafted on every rebuild

	// replMu guards the replication role fields and self-heal state:
	// automatic demotion after fencing swaps the role from a background
	// goroutine while HTTP handlers read status concurrently.
	replMu sync.Mutex
	// Exactly one of these is non-nil when replication is attached
	// (see replicate.go): primaries ship their WAL, replicas apply a
	// primary's stream into the local store.
	replPrimary  *repl.Primary
	replFollower *repl.Follower

	// Self-healing and election (see replicate.go): when configured, a
	// fenced ex-primary demotes in place and re-homes as a follower of
	// the new primary, and followers of a dead primary elect a successor
	// among themselves, instead of waiting for an operator.
	selfHeal     *SelfHealConfig
	selfHealStop chan struct{}
	selfHealWG   sync.WaitGroup
	healBusy     bool
	// rejoinEpoch is the highest epoch a superseded primary has seen, set
	// while it waits to rejoin; it votes only for epochs above it.
	rejoinEpoch uint64
	// ballot is this node's durable vote record for elections.
	ballot *repl.Ballot
	// promoteListen is the replication listener this node binds if
	// promoted; setting it is what lets the node stand for election.
	promoteListen string
}

// New creates an empty platform.
func New(cfg Config) *Platform {
	if cfg.CubeName == "" {
		cfg.CubeName = "MedicalMeasures"
	}
	return &Platform{cfg: cfg, kbase: kb.New(cfg.PromotionThreshold)}
}

// Close releases the OLTP store, if one was opened, the maintainer's WAL
// retention pin and any replication role.
func (p *Platform) Close() error {
	p.StopSelfHeal()
	if m, err := p.built(); err == nil {
		m.Close()
	}
	p.StopReplication()
	if p.store == nil {
		return nil
	}
	err := p.store.Close()
	p.store = nil
	return err
}

// NewPassthroughPipeline returns an empty ETL pipeline, for data that is
// already transformed (e.g. a flat table written by an earlier run).
func NewPassthroughPipeline() *etl.Pipeline { return &etl.Pipeline{} }

// Acquire is phase one: raw clinical records enter the transactional
// store (creating it on first call). Repeated calls append.
func (p *Platform) Acquire(raw *storage.Table) error {
	if err := p.OpenStore(raw.Schema()); err != nil {
		return err
	}
	if err := p.store.LoadTable(raw); err != nil {
		return fmt.Errorf("core: acquiring: %w", err)
	}
	return nil
}

// OpenStore opens (or creates) the transactional store without loading
// any rows — the reopen path for a durable store, where the data already
// lives in the WAL. A store already open stays as it is.
func (p *Platform) OpenStore(schema *storage.Schema) error {
	if p.store != nil {
		return nil
	}
	s, err := oltp.OpenWith(p.cfg.DataDir, schema, oltp.Options{Log: p.cfg.Log, Meta: p.kbase})
	if err != nil {
		return fmt.Errorf("core: opening store: %w", err)
	}
	p.store = s
	return nil
}

// Store exposes the transactional store for OLTP reporting.
func (p *Platform) Store() *oltp.Store { return p.store }

// Flat returns the transformed analysis table.
func (p *Platform) Flat() *storage.Table { return p.flat }

// Warehouse returns the star schema, nil before StartFollow. It reads
// under the maintainer's read lock, which a rebuild holds while it swaps
// the schema.
func (p *Platform) Warehouse() *star.Schema {
	m, err := p.built()
	if err != nil {
		return nil
	}
	m.RLock()
	defer m.RUnlock()
	return p.engine.Schema()
}

// Engine returns the OLAP engine.
func (p *Platform) Engine() *cube.Engine { return p.engine }

// KB returns the knowledge base.
func (p *Platform) KB() *kb.Base { return p.kbase }

// RegisterMeasure exposes a measure to MDX queries.
func (p *Platform) RegisterMeasure(name string, m cube.MeasureRef) error {
	if p.eval == nil {
		return fmt.Errorf("core: warehouse not built")
	}
	p.eval.RegisterMeasure(name, m)
	return nil
}

// QueryCtx executes a cube query (the OLAP reporting feature). It holds
// the maintainer's read lock so refresh batches cannot swap the
// warehouse mid-query. The kernel scan checks ctx cooperatively and
// charges any govern.Budget it carries, so cancelled or over-budget
// queries stop mid-scan and release the lock; a trace span carried by
// ctx (obs.ContextWithSpan) collects the stage spans.
func (p *Platform) QueryCtx(ctx context.Context, q cube.Query) (*cube.CellSet, error) {
	m, err := p.built()
	if err != nil {
		return nil, err
	}
	m.RLock()
	defer m.RUnlock()
	return p.engine.ExecuteCtx(ctx, q)
}

// QueryMDXCtx executes an MDX query string under a caller context (see
// QueryCtx).
func (p *Platform) QueryMDXCtx(ctx context.Context, src string) (*cube.CellSet, error) {
	m, err := p.built()
	if err != nil {
		return nil, err
	}
	m.RLock()
	defer m.RUnlock()
	return p.eval.QueryCtx(ctx, src)
}

// PatientRecord is the OLTP-reporting half of the Reporting feature: a
// point query fetching every raw attendance of one patient from the
// transactional store via a secondary index, ordered by RowID (insertion
// order). The index is created on first use.
func (p *Platform) PatientRecord(patientCol string, pid value.Value) ([]oltp.Row, error) {
	if p.store == nil {
		return nil, fmt.Errorf("core: no data acquired")
	}
	ids, err := p.store.Lookup(patientCol, pid)
	if err != nil {
		// Index missing: create it and look again. A concurrent first
		// call may create it in between, so a failed create is an error
		// only when the index is still missing.
		cerr := p.store.CreateIndex(patientCol)
		if ids, err = p.store.Lookup(patientCol, pid); err != nil {
			if cerr != nil {
				return nil, fmt.Errorf("core: indexing %q: %w", patientCol, cerr)
			}
			return nil, err
		}
	}
	tx := p.store.Begin()
	defer tx.Rollback()
	rows := make([]oltp.Row, 0, len(ids))
	for _, id := range ids {
		if r, ok := tx.Get(id); ok {
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// Mine isolates a dataset from the flat table (in the architecture, a
// cube subset) for the data-analytics feature.
func (p *Platform) Mine(features []string, label string) (*mining.Dataset, error) {
	m, err := p.built()
	if err != nil {
		return nil, err
	}
	m.RLock()
	defer m.RUnlock()
	return mining.FromTable(p.flat, features, label)
}

// TrajectoryModel fits a Markov disease-trajectory model (the prediction
// feature): each patient's visits are ordered by the time column, the
// measure column is state-abstracted with the discretizer, and the
// resulting per-patient state sequences train the chain.
func (p *Platform) TrajectoryModel(patientCol, timeCol, measureCol string, d etl.Discretizer) (*predict.Markov, error) {
	mt, err := p.built()
	if err != nil {
		return nil, err
	}
	mt.RLock()
	defer mt.RUnlock()
	for _, c := range []string{patientCol, timeCol, measureCol} {
		if _, ok := p.flat.Schema().Lookup(c); !ok {
			return nil, fmt.Errorf("core: unknown column %q", c)
		}
	}
	byPatient := make(map[value.Value][]etl.Observation)
	var order []value.Value
	for i := 0; i < p.flat.Len(); i++ {
		pid := p.flat.MustValue(i, patientCol)
		at := p.flat.MustValue(i, timeCol)
		if pid.IsNA() || at.IsNA() {
			continue
		}
		if _, seen := byPatient[pid]; !seen {
			order = append(order, pid)
		}
		byPatient[pid] = append(byPatient[pid], etl.Observation{
			At: at.Time(), V: p.flat.MustValue(i, measureCol),
		})
	}
	var sequences [][]string
	for _, pid := range order {
		ivals, err := etl.AbstractStates(byPatient[pid], d)
		if err != nil {
			return nil, fmt.Errorf("core: abstracting patient %v: %w", pid, err)
		}
		seq := make([]string, 0, len(ivals))
		// Expand persistence-merged intervals back to per-visit states so
		// self-transitions are represented.
		for _, iv := range ivals {
			for k := 0; k < iv.N; k++ {
				seq = append(seq, iv.State)
			}
		}
		if len(seq) >= 2 {
			sequences = append(sequences, seq)
		}
	}
	m := predict.NewMarkov()
	if err := m.Fit(sequences); err != nil {
		return nil, fmt.Errorf("core: fitting trajectory model: %w", err)
	}
	return m, nil
}

// ValidateStability runs the decision-optimisation dimension-ablation
// check against the warehouse.
func (p *Platform) ValidateStability(base cube.Query, candidates []cube.AttrRef, tolerance float64) (*optimize.StabilityReport, error) {
	m, err := p.built()
	if err != nil {
		return nil, err
	}
	m.RLock()
	defer m.RUnlock()
	return optimize.ValidateStability(p.engine, base, candidates, tolerance)
}

// RecordFinding stores an analysis outcome in the knowledge base — the
// first half of the knowledge-management loop. With a store open, the
// finding travels as a KB event through the OLTP WAL (and therefore
// through checkpoints, recovery and replication): findings are as
// durable as the rows they were derived from and survive failover. A
// storeless platform applies it directly in memory.
func (p *Platform) RecordFinding(topic, statement, source string) (string, error) {
	if err := kb.ValidateFinding(topic, statement); err != nil {
		return "", err
	}
	ev := kb.Event{Op: kb.EvAdd, Topic: topic, Statement: statement, Source: source, At: time.Now().UnixNano()}
	if err := p.commitKBEvent(ev); err != nil {
		return "", err
	}
	f, ok := p.kbase.Lookup(topic, statement)
	if !ok {
		return "", fmt.Errorf("core: finding not recorded")
	}
	return f.ID, nil
}

// ReinforceFinding adds one evidence observation to a finding, routed
// through the same replicated path as RecordFinding.
func (p *Platform) ReinforceFinding(id string) error {
	f, err := p.kbase.Get(id)
	if err != nil {
		return err
	}
	if f.Status == kb.Retracted {
		return fmt.Errorf("kb: finding %q is retracted", id)
	}
	return p.commitKBEvent(kb.Event{Op: kb.EvReinforce, ID: id, At: time.Now().UnixNano()})
}

// commitKBEvent routes one KB event through the OLTP store's meta
// channel when a store is open (the store applies it to the base at
// commit), or applies it directly for a storeless platform. On a
// replica the commit is refused with oltp.ErrReplica — KB writes belong
// on the primary, where replication fans them out.
func (p *Platform) commitKBEvent(ev kb.Event) error {
	if p.store == nil {
		p.kbase.ApplyEvent(ev)
		return nil
	}
	tx := p.store.Begin()
	defer tx.Rollback()
	if err := tx.PutMeta(kb.EncodeEvent(ev)); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("core: recording finding: %w", err)
	}
	return nil
}

// AddFeedbackDimension grafts clinician feedback onto the warehouse as a
// new dimension — the closed-loop step that distinguishes DD-DGMS from a
// one-way warehouse. Invalidation is targeted: only caches touching the
// (re)added dimension are dropped, so every other dimension's bitmaps,
// coded columns and lattice entries survive the graft. The maintainer's
// write lock excludes refresh batches, which classify the facts they
// append; every rebuild (resync, compaction) grafts the dimension again.
func (p *Platform) AddFeedbackDimension(name string, attrs []storage.Field, classify star.FactClassifier) error {
	m, err := p.built()
	if err != nil {
		return err
	}
	m.Lock()
	defer m.Unlock()
	graft := func(s *star.Schema) error { return s.AddFeedbackDimension(name, attrs, classify) }
	if err := graft(p.engine.Schema()); err != nil {
		return err
	}
	p.engine.InvalidateDimension(name)
	p.grafts = append(p.grafts, graft)
	return nil
}
