package report

import (
	"strings"
	"testing"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/discri"
)

func testPlatform(t *testing.T) *core.Platform {
	t.Helper()
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 200
	p, err := core.NewDiScRiPlatform(core.Config{}, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestWriteFullReport(t *testing.T) {
	p := testPlatform(t)
	// Promote one finding so the findings section has content.
	id, err := p.RecordFinding("diabetes", "test finding for the report", "test")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := p.ReinforceFinding(id); err != nil {
			t.Fatal(err)
		}
	}

	var sb strings.Builder
	if err := Write(&sb, p, Options{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"screening programme report",
		"cohort demographics",
		"with margins",
		"total",
		"condition burden",
		"percent of cohort",
		"disease-course projection",
		"projected state mix after 5 screening cycles",
		"preDiabetic",
		"Ewing battery",
		"hand-grip test missing",
		"established knowledge-base findings",
		"test finding for the report",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestWriteSectionsSkippable(t *testing.T) {
	p := testPlatform(t)
	var sb strings.Builder
	err := Write(&sb, p, Options{
		SkipDemographics: true, SkipConditions: true,
		SkipTrajectory: true, SkipCAN: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "cohort demographics") || strings.Contains(out, "Ewing") {
		t.Error("skipped sections rendered")
	}
	// Findings section with empty KB notes its emptiness.
	if !strings.Contains(out, "none yet") {
		t.Error("empty-findings note missing")
	}
}
