package core

import (
	"context"
	"path/filepath"
	"testing"

	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/value"
)

// TestFollowFlatTableLagsCube pins a stated freshness gap of follow mode:
// /query answers from the cube, which every refresh batch maintains, but
// /sql and /flatquery read the flat table of the last bootstrap,
// compaction or resync, which batches never append to (it has no
// tombstones to retire a re-derived patient's old rows with). After a new
// patient's attendance is committed and refreshed, the cube counts the
// patient and DG-SQL does not. A change that keeps the flat table current
// per batch turns this into an agreement check.
func TestFollowFlatTableLagsCube(t *testing.T) {
	dir := t.TempDir()
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 60
	raw, err := discri.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{DataDir: filepath.Join(dir, "store")})
	t.Cleanup(func() { p.Close() })
	if err := p.OpenStore(raw.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := p.Store().LoadTable(raw); err != nil {
		t.Fatal(err)
	}
	if err := p.StartFollow(FollowConfig{
		Pipeline: NewDiScRiPipeline(),
		Builder:  NewDiScRiBuilder(),
		Setup:    FinishDiScRiSetup,
	}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	counts := func() (cubePatients, flatRows, flatPatients int64) {
		t.Helper()
		cs, err := p.QueryCtx(ctx, cube.Query{Measure: PatientCountMeasure()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.QuerySQLCtx(ctx, "SELECT count(*), distinct(PatientID) FROM visits")
		if err != nil {
			t.Fatal(err)
		}
		row := res.Row(0)
		return cs.Cell(0, 0).Int(), row[0].Int(), row[1].Int()
	}
	cube0, rows0, flat0 := counts()
	if cube0 != int64(dcfg.Patients) || flat0 != cube0 {
		t.Fatalf("at bootstrap: cube %d patients, DG-SQL %d; want both %d", cube0, flat0, dcfg.Patients)
	}

	// Commit one attendance of a patient the cohort does not have yet.
	snap, err := p.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pidIdx, _ := p.Store().Schema().Lookup("PatientID")
	row := snap.Row(0)
	var maxPID int64
	for i := 0; i < snap.Len(); i++ {
		maxPID = max(maxPID, snap.Row(i)[pidIdx].Int())
	}
	row[pidIdx] = value.Int(maxPID + 1)
	tx := p.Store().Begin()
	if _, err := tx.Insert(oltp.Row(row)); err != nil {
		tx.Rollback()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	drain(t, p)

	cube1, rows1, flat1 := counts()
	if cube1 != cube0+1 {
		t.Fatalf("cube counts %d patients after the refresh, want %d", cube1, cube0+1)
	}
	if rows1 != rows0 || flat1 != flat0 {
		t.Fatalf("DG-SQL reads %d rows / %d patients after the refresh, want the bootstrap's %d / %d until the next rebuild",
			rows1, flat1, rows0, flat0)
	}
}
