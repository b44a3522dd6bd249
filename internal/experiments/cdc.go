package experiments

import (
	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/storage"
)

// NewCDCPlatform builds the DiScRi platform the streaming way: half the
// cohort seeds a durable OLTP store, follow mode bootstraps the
// warehouse from its snapshot, and the remaining attendances arrive as
// small committed transactions interleaved with incremental refresh
// batches. The chunking deliberately splits patients across the
// snapshot/stream boundary and across transactions, exercising the
// patient-scoped recompute. The resulting warehouse must answer every
// figure query identically to the batch-built platform (the tests
// assert it); dir must be a writable scratch directory.
func NewCDCPlatform(dir string, dcfg discri.Config) (*core.Platform, error) {
	raw, err := discri.Generate(dcfg)
	if err != nil {
		return nil, err
	}
	p := core.New(core.Config{DataDir: dir})
	ok := false
	defer func() {
		if !ok {
			p.Close()
		}
	}()
	if err := p.OpenStore(raw.Schema()); err != nil {
		return nil, err
	}
	half := raw.Len() / 2
	if p.Store().Len() == 0 {
		seed, err := storage.NewTable(raw.Schema())
		if err != nil {
			return nil, err
		}
		for i := 0; i < half; i++ {
			if err := seed.AppendRow(raw.Row(i)); err != nil {
				return nil, err
			}
		}
		if err := p.Store().LoadTable(seed); err != nil {
			return nil, err
		}
	}
	if err := p.StartFollow(core.FollowConfig{
		Pipeline: core.NewDiScRiPipeline(),
		Builder:  core.NewDiScRiBuilder(),
		Setup:    core.FinishDiScRiSetup,
	}); err != nil {
		return nil, err
	}

	// Stream the second half: a few dozen rows per transaction, a refresh
	// every few commits so batches and commits interleave.
	const txRows, refreshEvery = 25, 4
	commits := 0
	for i := half; i < raw.Len(); i += txRows {
		tx := p.Store().Begin()
		for j := i; j < i+txRows && j < raw.Len(); j++ {
			if _, err := tx.Insert(oltp.Row(raw.Row(j))); err != nil {
				tx.Rollback()
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
		if commits++; commits%refreshEvery == 0 {
			if _, err := p.Refresh(); err != nil {
				return nil, err
			}
		}
	}
	// Drain whatever is still pending so the warehouse is caught up.
	for {
		n, err := p.Refresh()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
	}
	ok = true
	return p, nil
}
