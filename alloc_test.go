package ddgms_test

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/dgsql"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/faultfs"
	"github.com/ddgms/ddgms/internal/flatquery"
	"github.com/ddgms/ddgms/internal/obs"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// Shared fixtures: platforms are expensive to build (generate + ETL +
// warehouse load), so each cohort size is constructed once.
var (
	platforms   = map[int]*core.Platform{}
	platformsMu sync.Mutex
)

func platformFor(b testing.TB, patients int) *core.Platform {
	b.Helper()
	platformsMu.Lock()
	defer platformsMu.Unlock()
	if p, ok := platforms[patients]; ok {
		return p
	}
	dcfg := discri.DefaultConfig()
	dcfg.Patients = patients
	p, err := core.NewDiScRiPlatform(core.Config{}, dcfg)
	if err != nil {
		b.Fatal(err)
	}
	platforms[patients] = p
	return p
}

// kernelGroupBySpec is the reference group-by of the allocation gate: a
// realistic multivariate grouping over the full DiScRi attendance fact
// table with a non-additive and an additive aggregate.
func kernelGroupBySpec() ([]string, []storage.AggSpec) {
	keys := []string{"AgeBand10", "Gender", "DiabetesStatus"}
	aggs := []storage.AggSpec{
		{Kind: storage.DistinctAgg, Column: "PatientID", As: "patients"},
		{Kind: storage.AvgAgg, Column: "FBG", As: "avg_fbg"},
	}
	return keys, aggs
}

// TestGroupByCodedAllocBudget is the allocation-regression gate for the
// arena-based dense kernel: the reference grouping (kernelGroupBySpec
// through storage.Table.GroupBy) ran at 424 allocs/op on the pre-arena
// kernel, and the arena rework brought it under a quarter
// of that. The budget holds
// slack over the measured ~91 so unrelated churn doesn't trip it, while
// still catching any return to per-group heap allocation.
func TestGroupByCodedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under the race detector")
	}
	if testing.Short() {
		t.Skip("platform fixture is expensive")
	}
	flat := platformFor(t, 900).Flat()
	keys, aggs := kernelGroupBySpec()
	ctx := context.Background()
	if _, err := flat.GroupBy(ctx, keys, aggs, nil); err != nil { // warm the dictionaries
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := flat.GroupBy(ctx, keys, aggs, nil); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 150
	if avg > budget {
		t.Errorf("GroupByCoded allocates %.0f allocs/op, budget %d (legacy scalar baseline: 424)", avg, budget)
	}
}

// filteredScanAllocs returns the allocs/op of run at 900 patients after
// one warm-up call, which caches every dictionary the scan reads.
func filteredScanAllocs(t *testing.T, run func(flat *storage.Table) error) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are not stable under the race detector")
	}
	if testing.Short() {
		t.Skip("platform fixture is expensive")
	}
	flat := platformFor(t, 900).Flat()
	if err := run(flat); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(20, func() {
		if err := run(flat); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSQLFilteredAllocBudget is the allocation gate on a DG-SQL
// aggregate with a one-value WHERE, the commonest kind of /sql body in
// the flat_scan benchmark (252 of 336): a two-column avg group-by,
// ordered. The WHERE compiles to a row selection once per dictionary
// code and the scan allocates nothing per row; the whole statement
// measures 172 allocs/op (parse excluded). The budget holds 1.5x that,
// so any allocation per selected row fails it.
func TestSQLFilteredAllocBudget(t *testing.T) {
	st, err := dgsql.Parse("SELECT FBGBand, ExerciseFrequency, avg(FBG) AS v FROM visits WHERE Gender = 'M' GROUP BY FBGBand, ExerciseFrequency ORDER BY FBGBand, ExerciseFrequency")
	if err != nil {
		t.Fatal(err)
	}
	avg := filteredScanAllocs(t, func(flat *storage.Table) error {
		db := dgsql.NewDB()
		if err := db.Register("visits", flat); err != nil {
			return err
		}
		_, err := db.ExecuteCtx(context.Background(), st)
		return err
	})
	t.Logf("filtered DG-SQL aggregate at 900 patients: %.0f allocs/op", avg)
	const budget = 260
	if avg > budget {
		t.Errorf("filtered DG-SQL aggregate allocates %.0f allocs/op, budget %d", avg, budget)
	}
}

// TestFlatQueryFilteredAllocBudget is the same gate on /flatquery: the
// same grouping, its filter and the rule that drops NA grouping codes
// compiled into one row selection, measures 71 allocs/op. The budget
// holds 1.5x that.
func TestFlatQueryFilteredAllocBudget(t *testing.T) {
	q := flatquery.Query{
		Rows:    []string{"FBGBand"},
		Cols:    []string{"ExerciseFrequency"},
		Filters: []flatquery.Filter{{Column: "Gender", Values: []value.Value{value.Str("M")}}},
		Agg:     storage.AvgAgg,
		Measure: "FBG",
	}
	avg := filteredScanAllocs(t, func(flat *storage.Table) error {
		_, err := flatquery.ExecuteCtx(context.Background(), flat, q)
		return err
	})
	t.Logf("filtered /flatquery at 900 patients: %.0f allocs/op", avg)
	const budget = 105
	if avg > budget {
		t.Errorf("filtered /flatquery allocates %.0f allocs/op, budget %d", avg, budget)
	}
}

// TestCubeSlicedMissAllocBudget is the allocation gate on a /query cold
// miss: a one-slicer distinct-patient crosstab (Fig 4's diabetic
// patients by age band and gender) at 900 patients. The lattice never
// caches a distinct count, so every run scans; the slicer compiles to a
// row selection over the cached coded columns and the scan allocates
// nothing per row. It measures 112 allocs/op; the budget holds 1.5x
// that, so an allocation per selected row or per fact fails it.
func TestCubeSlicedMissAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under the race detector")
	}
	if testing.Short() {
		t.Skip("platform fixture is expensive")
	}
	p := platformFor(t, 900)
	q := cube.Query{
		Rows:    []cube.AttrRef{core.RefAgeBand10},
		Cols:    []cube.AttrRef{core.RefGender},
		Slicers: []cube.Slicer{{Ref: core.RefDiabetes, Values: []value.Value{value.Str("Yes")}}},
		Measure: core.PatientCountMeasure(),
	}
	ctx := context.Background()
	if _, err := p.QueryCtx(ctx, q); err != nil { // warm the coded columns
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := p.QueryCtx(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one-slicer PatientCount crosstab at 900 patients: %.0f allocs/op", avg)
	const budget = 168
	if avg > budget {
		t.Errorf("one-slicer PatientCount crosstab allocates %.0f allocs/op, budget %d", avg, budget)
	}
}

// TestApplyDeltaAllocScaling is the O(delta) gate on warehouse refresh:
// folding a one-attendance batch into an engine with PatientID and two
// sliced attributes cached must allocate no more bytes at 8x the fact
// rows than at 1x (with 1.5x slack). Re-encoding every cached column per
// batch allocates in proportion to the fact table and fails it.
func TestApplyDeltaAllocScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under the race detector")
	}
	small, large := applyDeltaBytes(t, 4000), applyDeltaBytes(t, 32000)
	t.Logf("ApplyDelta of one attendance: %d B at 4,000 facts, %d B at 32,000", small, large)
	if float64(large) > 1.5*float64(small) {
		t.Errorf("ApplyDelta allocates %d B at 8x the facts vs %d B at 1x; want O(appended rows)", large, small)
	}
}

// applyDeltaBytes builds a warehouse of facts attendances, three per
// patient, warms a distinct-patient query sliced on gender and diabetes
// status, and returns the median bytes ApplyDelta allocates to fold in
// one more attendance. The median skips the rare batch on which a
// column's spare capacity runs out and append reallocates it.
func applyDeltaBytes(t *testing.T, facts int) uint64 {
	t.Helper()
	schema := storage.MustSchema(
		storage.Field{Name: "PatientID", Kind: value.IntKind},
		storage.Field{Name: "VisitNo", Kind: value.IntKind},
		storage.Field{Name: "Gender", Kind: value.StringKind},
		storage.Field{Name: "Diabetes", Kind: value.StringKind},
		storage.Field{Name: "FBG", Kind: value.FloatKind},
	)
	attendance := func(tbl *storage.Table, i int) {
		pid := i / 3
		row := []value.Value{
			value.Int(int64(pid)), value.Int(int64(i%3 + 1)),
			value.Str([]string{"M", "F"}[pid%2]), value.Str([]string{"Yes", "No", "Pre"}[pid%3]),
			value.Float(5 + float64(i%30)/10),
		}
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	b := star.NewBuilder("MedicalMeasures").
		Dimension("Cardinality", []storage.Field{{Name: "PatientID", Kind: value.IntKind}, {Name: "VisitNo", Kind: value.IntKind}},
			[]string{"PatientID", "VisitNo"}).
		Dimension("Personal", []storage.Field{{Name: "Gender", Kind: value.StringKind}}, []string{"Gender"}).
		Dimension("Condition", []storage.Field{{Name: "Diabetes", Kind: value.StringKind}}, []string{"Diabetes"}).
		Measure(storage.Field{Name: "FBG", Kind: value.FloatKind}, "FBG")
	flat := storage.MustTable(schema)
	for i := 0; i < facts; i++ {
		attendance(flat, i)
	}
	s, err := b.Build(flat)
	if err != nil {
		t.Fatal(err)
	}
	e := cube.NewEngine(s)
	patient := cube.AttrRef{Dim: "Cardinality", Attr: "PatientID"}
	gender := cube.AttrRef{Dim: "Personal", Attr: "Gender"}
	if _, err := e.ExecuteCtx(context.Background(), cube.Query{
		Rows: []cube.AttrRef{gender},
		Slicers: []cube.Slicer{
			{Ref: cube.AttrRef{Dim: "Condition", Attr: "Diabetes"}, Values: []value.Value{value.Str("Yes")}},
			{Ref: gender, Values: []value.Value{value.Str("M"), value.Str("F")}},
		},
		Measure: cube.MeasureRef{Agg: storage.DistinctAgg, Attr: &patient},
	}); err != nil {
		t.Fatal(err)
	}

	next := facts
	batch := func() uint64 {
		delta := storage.MustTable(schema)
		attendance(delta, next)
		next++
		if err := b.Append(s, delta); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.ApplyDelta(cube.Delta{Appended: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for i := 0; i < 8; i++ {
		batch() // the first extends index each dictionary and take capacity
	}
	samples := make([]uint64, 41)
	for i := range samples {
		samples[i] = batch()
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// TestSetupAllocBudget is the allocation gate on standing the follow-mode
// warehouse up: generate the 900-patient cohort, load it into a durable
// store and bootstrap from a snapshot, as `ddgms serve -follow` does, and
// count heap allocations per attendance. Row-wise set-up (a schema
// rebuilt per attendance, a Clone through boxed rows, a fact key map per
// row) measured 517 per attendance; columnar set-up measures 14.4. The
// budget holds 1.5x that, so any return to per-cell boxing fails it.
func TestSetupAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under the race detector")
	}
	if testing.Short() {
		t.Skip("set-up at 900 patients is expensive")
	}
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	raw, err := discri.Generate(discri.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := core.New(core.Config{DataDir: dir})
	defer p.Close()
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
	runtime.ReadMemStats(&after)
	perRow := float64(after.Mallocs-before.Mallocs) / float64(raw.Len())
	t.Logf("set-up at 900 patients: %.1f allocs per attendance over %d attendances", perRow, raw.Len())
	const budget = 22
	if perRow > budget {
		t.Errorf("set-up allocates %.0f allocs per attendance, budget %d", perRow, budget)
	}
}

// TestRefreshBatchAllocBudget is the allocation gate on the follow-mode
// refresh batch: at 900 patients, commit one attendance, run Refresh and
// count heap allocations, the median over 60 batches. A batch that
// rebuilt the ~280-field schema once per derived column and cloned all
// 273 input columns measured 2,290; the compiled ETL plan measures
// 1,308. The budget holds 1.5x that, so cloning the input again fails
// it.
func TestRefreshBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under the race detector")
	}
	if testing.Short() {
		t.Skip("set-up at 900 patients is expensive")
	}
	const batches = 60
	raw, err := discri.Generate(discri.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Hold the last attendances back and stream them one per batch.
	seed := raw.Len() - batches
	p := core.New(core.Config{DataDir: t.TempDir()})
	defer p.Close()
	if err := p.OpenStore(raw.Schema()); err != nil {
		t.Fatal(err)
	}
	seeded := storage.MustTable(raw.Schema())
	for i := 0; i < seed; i++ {
		if err := seeded.AppendRow(raw.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Store().LoadTable(seeded); err != nil {
		t.Fatal(err)
	}
	if err := p.StartFollow(core.FollowConfig{
		Pipeline: core.NewDiScRiPipeline(),
		Builder:  core.NewDiScRiBuilder(),
		Setup:    core.FinishDiScRiSetup,
	}); err != nil {
		t.Fatal(err)
	}
	samples := make([]uint64, batches)
	for k := range samples {
		tx := p.Store().Begin()
		if _, err := tx.Insert(raw.Row(seed + k)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := p.Refresh()
		runtime.ReadMemStats(&after)
		if err != nil || n != 1 {
			t.Fatalf("Refresh = %d, %v; want one transaction", n, err)
		}
		samples[k] = after.Mallocs - before.Mallocs
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	median := samples[batches/2]
	t.Logf("one-attendance refresh batch at 900 patients: %d allocs (median of %d)", median, batches)
	const budget = 1960
	if median > budget {
		t.Errorf("refresh batch allocates %d allocs, budget %d", median, budget)
	}
}

// walCountingFS is the real filesystem with a count of the fsyncs and
// bytes that reach WAL and checkpoint files.
type walCountingFS struct {
	faultfs.OS
	syncs, bytes int
}

func (c *walCountingFS) Create(path string) (faultfs.File, error) {
	f, err := c.OS.Create(path)
	if err != nil {
		return nil, err
	}
	return &walCountingFile{File: f, fs: c}, nil
}

func (c *walCountingFS) OpenAppend(path string) (faultfs.File, error) {
	f, err := c.OS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &walCountingFile{File: f, fs: c}, nil
}

type walCountingFile struct {
	faultfs.File
	fs *walCountingFS
}

func (f *walCountingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes += n
	return n, err
}

func (f *walCountingFile) Sync() error {
	f.fs.syncs++
	return f.File.Sync()
}

// TestWALWorkBudget is the gate on the durable commit path and the
// change feed that reads it back. One single-row commit of a DiScRi
// attendance (273 fields) to a durable store costs exactly one fsync,
// two WAL appends (the insert and the commit marker) and a fixed number
// of WAL bytes (2,334); a second fsync, an extra record or a change in
// the record encoding fails it. It also bounds heap allocations per
// commit and per one-transaction TailWAL poll (the directory listing and
// the decoded row included, median of 40 polls) at 1.5x the 10 and 307
// they measured with a reader and a logging path per caller; the shared
// codec measures 11 and 310.
func TestWALWorkBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under the race detector")
	}
	if testing.Short() {
		t.Skip("cohort generation is expensive")
	}
	raw, err := discri.Generate(discri.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fs := &walCountingFS{}
	s, err := oltp.OpenWith(t.TempDir(), raw.Schema(), oltp.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	next := 0
	commit := func() {
		tx := s.Begin()
		if _, err := tx.Insert(raw.Row(next % raw.Len())); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		next++
	}
	commit() // the segment header lands with the first sync

	appends := obs.Default().Counter("ddgms_oltp_wal_appends_total", "")
	fs.syncs, fs.bytes = 0, 0
	before := appends.Value()
	commit()
	const walBytes = 2334
	if fs.syncs != 1 || appends.Value()-before != 2 || fs.bytes != walBytes {
		t.Errorf("one single-row commit: %d fsyncs, %d WAL appends, %d WAL bytes; want 1, 2, %d",
			fs.syncs, appends.Value()-before, fs.bytes, walBytes)
	}

	perCommit := testing.AllocsPerRun(40, commit)
	t.Logf("single-row durable commit: %.0f allocs", perCommit)
	const commitBudget = 15
	if perCommit > commitBudget {
		t.Errorf("single-row durable commit allocates %.0f, budget %d", perCommit, commitBudget)
	}

	cur, err := s.DurableLSN()
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]uint64, 40)
	for k := range samples {
		commit()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		txs, end, err := s.TailWAL(cur, 0)
		runtime.ReadMemStats(&after)
		if err != nil || len(txs) != 1 {
			t.Fatalf("TailWAL = %d transactions, %v; want one", len(txs), err)
		}
		samples[k], cur = after.Mallocs-before.Mallocs, end
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	median := samples[len(samples)/2]
	t.Logf("one-transaction TailWAL poll: %d allocs (median of %d)", median, len(samples))
	const pollBudget = 460
	if median > pollBudget {
		t.Errorf("one-transaction TailWAL poll allocates %d, budget %d", median, pollBudget)
	}
}
