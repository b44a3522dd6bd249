package core

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/storage"
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
	if err := p.StartFollow(discriFollow()); err != nil {
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

// reviewByGender is the ClinicianReview × Gender attendance crosstab,
// keyed by label so interning order does not matter.
func reviewByGender(t *testing.T, p *Platform) map[[2]string]int64 {
	t.Helper()
	cs, err := p.QueryCtx(context.Background(), cube.Query{
		Rows:    []cube.AttrRef{{Dim: "ClinicianReview", Attr: "Flag"}},
		Cols:    []cube.AttrRef{RefGender},
		Measure: cube.MeasureRef{Agg: storage.CountAgg},
	})
	if err != nil {
		t.Fatalf("ClinicianReview x Gender: %v", err)
	}
	out := make(map[[2]string]int64)
	for i := 0; i < cs.Rows(); i++ {
		for j := 0; j < cs.Columns(); j++ {
			if c := cs.Cell(i, j); !c.IsNA() && c.Int() != 0 {
				out[[2]string{cs.RowLabel(i), cs.ColLabel(j)}] = c.Int()
			}
		}
	}
	return out
}

// assertReviewMatchesControl compares p's ClinicianReview × Gender
// crosstab with a control: an in-memory platform bootstrapped from p's
// current store rows and given the same graft.
func assertReviewMatchesControl(t *testing.T, label string, p *Platform) {
	t.Helper()
	snap, err := p.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ctl := New(Config{})
	defer ctl.Close()
	if err := ctl.Acquire(snap); err != nil {
		t.Fatal(err)
	}
	if err := ctl.StartFollow(discriFollow()); err != nil {
		t.Fatal(err)
	}
	if err := addClinicianReview(ctl); err != nil {
		t.Fatal(err)
	}
	got, want := reviewByGender(t, p), reviewByGender(t, ctl)
	if len(want) == 0 {
		t.Fatalf("%s: control crosstab is empty", label)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: ClinicianReview x Gender = %v, control %v", label, got, want)
	}
}

// TestFeedbackDimensionSurvivesRebuild grafts the ClinicianReview
// feedback dimension onto a follow platform and checks it stays whole
// as the warehouse changes under it: refresh batches must classify the
// facts they append (for a new patient and for an existing one whose
// rows are re-derived), and a compaction and a gap resync, which
// rebuild the warehouse from scratch, must graft it again. After each
// step the crosstab must equal a platform bootstrapped from the same
// store state with the same graft.
func TestFeedbackDimensionSurvivesRebuild(t *testing.T) {
	for _, rebuild := range []string{"compaction", "resync"} {
		t.Run(rebuild, func(t *testing.T) {
			dcfg := discri.DefaultConfig()
			dcfg.Patients = 60
			raw, err := discri.Generate(dcfg)
			if err != nil {
				t.Fatal(err)
			}
			p := New(Config{DataDir: filepath.Join(t.TempDir(), "store")})
			t.Cleanup(func() { p.Close() })
			if err := p.Acquire(raw); err != nil {
				t.Fatal(err)
			}
			if err := p.StartFollow(discriFollow()); err != nil {
				t.Fatal(err)
			}
			if err := addClinicianReview(p); err != nil {
				t.Fatal(err)
			}
			assertReviewMatchesControl(t, "after the graft", p)

			// A high-FBG attendance for a new patient and a later visit
			// of an existing one.
			st := p.Store()
			pidIdx, _ := st.Schema().Lookup("PatientID")
			dateIdx, _ := st.Schema().Lookup("VisitDate")
			fbgIdx, _ := st.Schema().Lookup("FBG")
			var maxPID int64
			for i := 0; i < raw.Len(); i++ {
				maxPID = max(maxPID, raw.Row(i)[pidIdx].Int())
			}
			fresh := oltp.Row(raw.Row(0))
			fresh[pidIdx], fresh[fbgIdx] = value.Int(maxPID+1), value.Float(9.5)
			again := oltp.Row(raw.Row(0))
			again[dateIdx] = value.Time(again[dateIdx].Time().AddDate(2, 0, 0))
			again[fbgIdx] = value.Float(8.1)
			tx := st.Begin()
			for _, r := range []oltp.Row{fresh, again} {
				if _, err := tx.Insert(r); err != nil {
					tx.Rollback()
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			drain(t, p)
			assertReviewMatchesControl(t, "after appending facts", p)

			switch rebuild {
			case "compaction":
				// Two rounds that re-derive every patient, each in its own
				// batch, leave two thirds of the fact table tombstoned:
				// past the default 50 % threshold, above MinCompactRows.
				for round := 0; round < 2; round++ {
					tx := st.Begin()
					var ids []oltp.RowID
					tx.Scan(func(id oltp.RowID, _ oltp.Row) bool {
						ids = append(ids, id)
						return true
					})
					for k, id := range ids {
						row, _ := tx.Get(id)
						upd := append(oltp.Row(nil), row...)
						upd[fbgIdx] = value.Float(float64(5 + (k+round)%2*4))
						if err := tx.Update(id, upd); err != nil {
							tx.Rollback()
							t.Fatal(err)
						}
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					drain(t, p)
				}
				if f, _ := p.Freshness(); f.Compactions == 0 {
					t.Fatalf("no compaction: %+v", f)
				}
			case "resync":
				// Drop the maintainer's retention pin, commit and
				// checkpoint: the checkpoint sweeps the segment the tail
				// position is in, and the next refresh resyncs.
				st.RetainWALFrom(0)
				tx := st.Begin()
				if _, err := tx.Insert(oltp.Row(raw.Row(1))); err != nil {
					tx.Rollback()
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				drain(t, p)
				if f, _ := p.Freshness(); f.Resyncs != 1 {
					t.Fatalf("resyncs = %d, want 1", f.Resyncs)
				}
			}
			assertReviewMatchesControl(t, "after the "+rebuild, p)
		})
	}
}
