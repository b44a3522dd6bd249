package experiments

// Satellite check for the CDC path: a warehouse populated by streaming
// committed transactions through incremental refresh must produce the
// paper's figures byte-for-byte identically to the batch-built
// warehouse, and must still pass the figure shape assertions.

import (
	"fmt"
	"strings"
	"testing"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/value"
)

func cdcTestPlatform(t *testing.T) *core.Platform {
	t.Helper()
	p, err := NewCDCPlatform(t.TempDir(), discri.DefaultConfig())
	if err != nil {
		t.Fatalf("NewCDCPlatform: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestCDCPopulatedFiguresMatchBatch(t *testing.T) {
	batch := fullPlatform(t)
	streamed := cdcTestPlatform(t)

	// The streamed platform must be caught up before comparing.
	f, ok := streamed.Freshness()
	if !ok {
		t.Fatal("CDC platform reports no freshness")
	}
	if f.LagTx != 0 || f.AppliedCommits != f.StoreCommits {
		t.Fatalf("CDC platform not caught up: %+v", f)
	}

	var wantOut, gotOut strings.Builder
	wantFig4, err := Fig4(&wantOut, batch)
	if err != nil {
		t.Fatalf("batch Fig4: %v", err)
	}
	gotFig4, err := Fig4(&gotOut, streamed)
	if err != nil {
		t.Fatalf("cdc Fig4: %v", err)
	}
	if gotOut.String() != wantOut.String() {
		t.Fatalf("Fig4 output diverges\n--- batch ---\n%s\n--- cdc ---\n%s", wantOut.String(), gotOut.String())
	}
	sameCellSet(t, "fig4", gotFig4, wantFig4)

	wantOut.Reset()
	gotOut.Reset()
	wantFig5, err := Fig5(&wantOut, batch)
	if err != nil {
		t.Fatalf("batch Fig5: %v", err)
	}
	gotFig5, err := Fig5(&gotOut, streamed)
	if err != nil {
		t.Fatalf("cdc Fig5: %v", err)
	}
	if gotOut.String() != wantOut.String() {
		t.Fatalf("Fig5 output diverges\n--- batch ---\n%s\n--- cdc ---\n%s", wantOut.String(), gotOut.String())
	}
	sameCellSet(t, "fig5 coarse", gotFig5.Coarse, wantFig5.Coarse)
	sameCellSet(t, "fig5 fine", gotFig5.Fine, wantFig5.Fine)
	if err := CheckFig5Shape(gotFig5); err != nil {
		t.Errorf("cdc Fig5 shape: %v", err)
	}

	wantOut.Reset()
	gotOut.Reset()
	wantFig6, err := Fig6(&wantOut, batch)
	if err != nil {
		t.Fatalf("batch Fig6: %v", err)
	}
	gotFig6, err := Fig6(&gotOut, streamed)
	if err != nil {
		t.Fatalf("cdc Fig6: %v", err)
	}
	if gotOut.String() != wantOut.String() {
		t.Fatalf("Fig6 output diverges\n--- batch ---\n%s\n--- cdc ---\n%s", wantOut.String(), gotOut.String())
	}
	sameCellSet(t, "fig6 coarse", gotFig6.Coarse, wantFig6.Coarse)
	sameCellSet(t, "fig6 fine", gotFig6.Fine, wantFig6.Fine)
	if err := CheckFig6Shape(gotFig6); err != nil {
		t.Errorf("cdc Fig6 shape: %v", err)
	}
}

// sameCellSet requires two cell sets to agree exactly: same axes, same
// headers in the same order, same cells (NA matching NA).
func sameCellSet(t *testing.T, name string, got, want *cube.CellSet) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Columns() != want.Columns() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows(), got.Columns(), want.Rows(), want.Columns())
	}
	for i := range want.RowHeaders {
		for k := range want.RowHeaders[i] {
			if !got.RowHeaders[i][k].Equal(want.RowHeaders[i][k]) {
				t.Fatalf("%s: row header %d = %v, want %v", name, i, got.RowHeaders[i], want.RowHeaders[i])
			}
		}
	}
	for j := range want.ColHeaders {
		for k := range want.ColHeaders[j] {
			if !got.ColHeaders[j][k].Equal(want.ColHeaders[j][k]) {
				t.Fatalf("%s: col header %d = %v, want %v", name, j, got.ColHeaders[j], want.ColHeaders[j])
			}
		}
	}
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Columns(); j++ {
			g, w := got.Cell(i, j), want.Cell(i, j)
			if g.IsNA() != w.IsNA() || (!w.IsNA() && !g.Equal(w)) {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", name, i, j, g, w)
			}
		}
	}
}

// TestFactCountsAreLive commits a follow-up attendance of an existing
// patient to a follow-mode platform and waits until the refresh makes it
// visible. The patient-scoped refresh retires the patient's earlier facts
// and appends them re-derived, so the fact table now holds tombstones:
// Fig 3's schema description and Fig 2 must print the live fact count,
// not the physical one.
func TestFactCountsAreLive(t *testing.T) {
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 60
	raw, err := discri.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	p := core.New(core.Config{DataDir: t.TempDir()})
	t.Cleanup(func() { p.Close() })
	if err := p.OpenStore(raw.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := p.Store().LoadTable(raw); err != nil {
		t.Fatal(err)
	}
	if err := p.StartFollow(core.FollowConfig{
		Pipeline: core.NewDiScRiPipeline(),
		Builder:  core.NewDiScRiBuilder(),
		Setup:    core.FinishDiScRiSetup,
	}); err != nil {
		t.Fatal(err)
	}

	row := raw.Row(0)
	dateIdx, _ := raw.Schema().Lookup("VisitDate")
	row[dateIdx] = value.Time(row[dateIdx].Time().AddDate(1, 0, 0))
	tx := p.Store().Begin()
	if _, err := tx.Insert(oltp.Row(row)); err != nil {
		tx.Rollback()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for {
		n, err := p.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	if f, ok := p.Freshness(); !ok || f.LagTx != 0 {
		t.Fatalf("follow-up attendance not visible: %+v", f)
	}

	fact := p.Warehouse().Fact()
	if fact.RetiredCount() == 0 {
		t.Fatal("the follow-up attendance retired no facts")
	}
	live := raw.Len() + 1
	if fact.LiveLen() != live {
		t.Fatalf("warehouse holds %d live facts, want %d attendances", fact.LiveLen(), live)
	}
	if want := fmt.Sprintf("(%d rows)", live); !strings.Contains(p.Warehouse().Describe(), want) {
		t.Errorf("Describe does not print the live count %s:\n%s", want, p.Warehouse().Describe())
	}
	var fig2 strings.Builder
	if err := Fig2(&fig2, p); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%d facts,", live); !strings.Contains(fig2.String(), want) {
		t.Errorf("Fig 2 does not print the live count %q:\n%s", want, fig2.String())
	}
}
