package core

import (
	"context"
	"errors"
	"fmt"
	"log"

	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/etl"
	"github.com/ddgms/ddgms/internal/govern"
	"github.com/ddgms/ddgms/internal/mdx"
	"github.com/ddgms/ddgms/internal/refresh"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
)

// StartFollow stands the warehouse up from a store snapshot through an
// incremental maintainer (internal/refresh), which over a durable store
// keeps it fresh by tailing the WAL; an in-memory store gets a
// bootstrap-only maintainer. Queries take the maintainer's read lock so
// they never observe a half-applied batch.

// FollowConfig parameterises StartFollow.
type FollowConfig struct {
	// Pipeline transforms store rows into the flat table Builder loads;
	// the pipeline must be patient-local (see refresh).
	Pipeline *etl.Pipeline
	Builder  *star.Builder
	// CursorDir is ignored: the tail position lives in memory and every
	// start rebootstraps from a snapshot. It remains only so existing
	// callers still compile.
	CursorDir string
	// Setup runs after every (re)build — bootstrap, resync, compaction —
	// to re-register measures and member orders (FinishDiScRiSetup for
	// the trial wiring). It must not issue queries.
	Setup func(*Platform) error
	// Breaker, when set, gates each refresh batch (see refresh.Config).
	Breaker *govern.Breaker
	// Log, when set, receives one line per resync (see
	// refresh.Config.Log).
	Log *log.Logger
}

// built returns the maintainer that owns the warehouse: the platform's
// one "warehouse not built" check.
func (p *Platform) built() (*refresh.Maintainer, error) {
	if p.follower == nil {
		return nil, errors.New("core: warehouse not built; run StartFollow first")
	}
	return p.follower, nil
}

// StartFollow bootstraps the warehouse from a store snapshot and readies
// the maintainer. Over a durable store (DataDir set), RunFollow (or
// Refresh in a loop) consumes changes; over an in-memory store both
// return oltp.ErrNoWAL.
func (p *Platform) StartFollow(fcfg FollowConfig) error {
	if p.store == nil {
		return fmt.Errorf("core: no data acquired")
	}
	if _, err := p.built(); err == nil {
		return fmt.Errorf("core: already following")
	}
	m, err := refresh.New(p.store, refresh.Config{
		Pipeline: fcfg.Pipeline,
		Builder:  fcfg.Builder,
		Breaker:  fcfg.Breaker,
		Log:      fcfg.Log,
		OnRebuild: func(e *cube.Engine, s *star.Schema, flat *storage.Table) error {
			for _, graft := range p.grafts {
				if err := graft(s); err != nil {
					return err
				}
			}
			p.engine, p.flat = e, flat
			p.eval = mdx.NewEvaluator(e, p.cfg.CubeName)
			p.eval.RegisterMeasure("Attendances", cube.MeasureRef{Agg: storage.CountAgg})
			if fcfg.Setup != nil {
				return fcfg.Setup(p)
			}
			return nil
		},
	})
	if err != nil {
		return fmt.Errorf("core: starting follow mode: %w", err)
	}
	p.follower = m
	return nil
}

// Refresh applies one pending CDC batch (0 when caught up). It is the
// single-step form of RunFollow, for tests and simulations that
// interleave commits and refreshes deterministically.
func (p *Platform) Refresh() (int, error) {
	m, err := p.built()
	if err != nil {
		return 0, err
	}
	return m.Refresh()
}

// RunFollow consumes the change feed until ctx is done (see StartFollow).
func (p *Platform) RunFollow(ctx context.Context) error {
	m, err := p.built()
	if err != nil {
		return err
	}
	return m.Run(ctx)
}

// Freshness reports warehouse staleness; ok is false when there is no
// change feed to trail: no warehouse yet, or an in-memory store.
func (p *Platform) Freshness() (refresh.Freshness, bool) {
	m, err := p.built()
	if err != nil || p.cfg.DataDir == "" {
		return refresh.Freshness{}, false
	}
	return m.Freshness(), true
}
