package core

import (
	"context"
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

// Follow mode: instead of the batch Transform -> BuildWarehouse phases,
// the platform stands its warehouse up from a store snapshot and then
// keeps it fresh by tailing the store's WAL through an incremental
// maintainer (internal/refresh). Queries keep working throughout; they
// take the maintainer's read lock so they never observe a half-applied
// batch.

// FollowConfig parameterises StartFollow.
type FollowConfig struct {
	// Pipeline and Builder play the same roles as in Transform and
	// BuildWarehouse; the pipeline must be patient-local (see refresh).
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

// StartFollow bootstraps the warehouse from a store snapshot and readies
// the incremental maintainer. The store must be durable (DataDir set).
// Call RunFollow (or Refresh in a loop) to actually consume changes.
func (p *Platform) StartFollow(fcfg FollowConfig) error {
	if p.store == nil {
		return fmt.Errorf("core: no data acquired")
	}
	if p.follower != nil {
		return fmt.Errorf("core: already following")
	}
	m, err := refresh.New(p.store, refresh.Config{
		Pipeline: fcfg.Pipeline,
		Builder:  fcfg.Builder,
		Breaker:  fcfg.Breaker,
		Log:      fcfg.Log,
		OnRebuild: func(e *cube.Engine, s *star.Schema, flat *storage.Table) error {
			p.schema, p.engine, p.flat = s, e, flat
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
	if p.follower == nil {
		return 0, fmt.Errorf("core: not following")
	}
	return p.follower.Refresh()
}

// RunFollow consumes the change feed until ctx is done.
func (p *Platform) RunFollow(ctx context.Context) error {
	if p.follower == nil {
		return fmt.Errorf("core: not following")
	}
	return p.follower.Run(ctx)
}

// Freshness reports warehouse staleness; ok is false when the platform
// is not in follow mode.
func (p *Platform) Freshness() (refresh.Freshness, bool) {
	if p.follower == nil {
		return refresh.Freshness{}, false
	}
	return p.follower.Freshness(), true
}

// StopFollow detaches the maintainer (the warehouse stays queryable at
// its last applied state).
func (p *Platform) StopFollow() {
	if p.follower != nil {
		p.follower.Close()
		p.follower = nil
	}
}
