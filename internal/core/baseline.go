// The platform's non-MDX query surfaces: DG-SQL and the flat-scan
// baseline, both answered from the flat analysis table. They back the
// server's /sql and /flatquery endpoints and obey the same discipline as
// MDX queries: the maintainer's read lock keeps them out of half-applied
// refresh batches, and the caller context reaches the execution kernel
// so cancellation and budgets work end to end.

package core

import (
	"context"

	"github.com/ddgms/ddgms/internal/dgsql"
	"github.com/ddgms/ddgms/internal/flatquery"
	"github.com/ddgms/ddgms/internal/storage"
)

// FlatTableName is the name DG-SQL queries address the flat analysis
// table by, matching the ddgms sql subcommand.
const FlatTableName = "visits"

// QuerySQLCtx answers a DG-SQL query over the flat analysis table
// (registered as FlatTableName). The DB handle is rebuilt per call —
// registration is a map insert, and rebuilds swap the flat table, so
// caching a handle would serve stale rows.
func (p *Platform) QuerySQLCtx(ctx context.Context, src string) (*storage.Table, error) {
	m, err := p.built()
	if err != nil {
		return nil, err
	}
	m.RLock()
	defer m.RUnlock()
	db := dgsql.NewDB()
	if err := db.Register(FlatTableName, p.flat); err != nil {
		return nil, err
	}
	return db.QueryCtx(ctx, src)
}

// QueryFlatCtx answers a flat-scan baseline query — the paper's
// no-warehouse comparator — over the flat analysis table.
func (p *Platform) QueryFlatCtx(ctx context.Context, q flatquery.Query) (*flatquery.Result, error) {
	m, err := p.built()
	if err != nil {
		return nil, err
	}
	m.RLock()
	defer m.RUnlock()
	return flatquery.ExecuteCtx(ctx, p.flat, q)
}
