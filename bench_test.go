package ddgms_test

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (§V), plus the ablations DESIGN.md calls out —
// warehouse/cube versus direct flat scan (B1), the aggregate lattice on
// and off (B2), and the mining algorithms over an OLAP-isolated subset
// (B3). Run with:
//
//	go test -bench=. -benchmem
//
// The absolute numbers depend on the host; EXPERIMENTS.md records the
// qualitative shapes (who wins, by what factor) that must hold.

import (
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/dgsql"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/etl"
	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/experiments"
	"github.com/ddgms/ddgms/internal/flatquery"
	"github.com/ddgms/ddgms/internal/mining"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/refresh"
	"github.com/ddgms/ddgms/internal/repl"
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

// scanEngine returns an engine over the same warehouse with the aggregate
// lattice disabled, so query benchmarks measure steady-state scan cost
// rather than cache hits.
func scanEngine(b *testing.B, patients int) *cube.Engine {
	b.Helper()
	p := platformFor(b, patients)
	e := cube.NewEngine(p.Warehouse(), cube.WithAggregateCache(false))
	// Warm the memoised attribute columns and bitmaps so iterations
	// measure aggregation, not one-off materialisation.
	if _, err := e.ExecuteCtx(context.Background(), experiments.Fig5Query()); err != nil {
		b.Fatal(err)
	}
	return e
}

// --- Table I -------------------------------------------------------------

// BenchmarkTableIDiscretisation measures applying the paper's four
// clinical discretisation schemes across the full cohort (the
// transformation cost the Table I section describes).
func BenchmarkTableIDiscretisation(b *testing.B) {
	p := platformFor(b, 900)
	flat := p.Flat()
	schemes := map[string]etl.Discretizer{
		"Age":               core.AgeScheme,
		"DiagnosticHTYears": core.HTYearsScheme,
		"FBG":               core.FBGScheme,
		"LyingDBPAverage":   core.DBPScheme,
	}
	cols := map[string]storage.Column{}
	for name := range schemes {
		cols[name] = flat.MustColumn(name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for name, d := range schemes {
			col := cols[name]
			for r := 0; r < col.Len(); r++ {
				if _, err := d.Apply(col.Value(r)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkTableIAlgorithmic measures the supervised fallback
// discretizers (MDLP and ChiMerge) fitting FBG against the diabetes
// label — the scheme-less-attribute path of Table I.
func BenchmarkTableIAlgorithmic(b *testing.B) {
	p := platformFor(b, 900)
	flat := p.Flat()
	fbg := flat.MustColumn("FBG")
	dia := flat.MustColumn("DiabetesStatus")
	var vals, labels []value.Value
	for i := 0; i < flat.Len(); i++ {
		vals = append(vals, fbg.Value(i))
		labels = append(labels, dia.Value(i))
	}
	b.Run("mdlp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := etl.FitMDLP(vals, labels); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("chimerge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := etl.FitChiMerge(vals, labels, 3.84, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figures -------------------------------------------------------------

// BenchmarkFig3WarehouseBuild measures the Fig 3 dimensional load: flat
// table to star schema with all eight dimensions.
func BenchmarkFig3WarehouseBuild(b *testing.B) {
	p := platformFor(b, 900)
	flat := p.Flat()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewDiScRiBuilder().Build(flat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4CrossTab measures the Fig 4 query: family history of
// diabetes by age group × gender, counting distinct patients.
func BenchmarkFig4CrossTab(b *testing.B) {
	e := scanEngine(b, 900)
	q := experiments.Fig4Query()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecuteCtx(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5DrillDown measures the Fig 5 exploration: the coarse
// 10-year query followed by the 5-year drill-down.
func BenchmarkFig5DrillDown(b *testing.B) {
	e := scanEngine(b, 900)
	coarse := experiments.Fig5Query()
	fine, err := e.DrillDown(coarse, core.RefAgeBand10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecuteCtx(context.Background(), coarse); err != nil {
			b.Fatal(err)
		}
		if _, err := e.ExecuteCtx(context.Background(), fine); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6HTYears measures the Fig 6 query: years since
// hypertension diagnosis by age group, with drill-down.
func BenchmarkFig6HTYears(b *testing.B) {
	e := scanEngine(b, 900)
	coarse := experiments.Fig6Query()
	fine, err := e.DrillDown(coarse, core.RefAgeBand10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecuteCtx(context.Background(), coarse); err != nil {
			b.Fatal(err)
		}
		if _, err := e.ExecuteCtx(context.Background(), fine); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigAllRender regenerates every figure end-to-end including
// text rendering (what cmd/figures does), on a reduced cohort.
func BenchmarkFigAllRender(b *testing.B) {
	p := platformFor(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(io.Discard, p); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Fig5(io.Discard, p); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Fig6(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Execution core: the coded group-by kernel ------------------------------

// kernelGroupBySpec is the reference group-by of the kernel benchmarks: a
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

// BenchmarkGroupByCoded measures storage.Table.GroupBy on the coded
// kernel (cached column dictionaries, packed integer group keys, worker
// pool).
func BenchmarkGroupByCoded(b *testing.B) {
	flat := platformFor(b, 900).Flat()
	keys, aggs := kernelGroupBySpec()
	if _, err := flat.GroupBy(keys, aggs); err != nil { // warm the dictionaries
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flat.GroupBy(keys, aggs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupByEncoded runs the reference grouping with every key and
// the distinct measure forced to one physical encoding, straight against
// the exec kernel so each subbenchmark builds its own coded columns. The
// custom column-bytes metric is the total resident size of those code
// vectors — the compression the encoding buys on this dataset.
func BenchmarkGroupByEncoded(b *testing.B) {
	flat := platformFor(b, 900).Flat()
	keyNames, _ := kernelGroupBySpec()
	encode := func(name string) exec.CodedColumn {
		col := flat.MustColumn(name)
		return exec.EncodeFunc(col.Len(), col.Value)
	}
	for _, enc := range []string{"flat", "packed", "rle"} {
		b.Run(enc, func(b *testing.B) {
			b.Setenv(exec.ForceEncodingEnv, enc)
			in := exec.GroupInput{NumRows: flat.Len()}
			columnBytes := 0
			for _, name := range keyNames {
				cc := encode(name)
				in.Keys = append(in.Keys, cc)
				columnBytes += cc.CodeBytes()
			}
			patients := encode("PatientID")
			columnBytes += patients.CodeBytes()
			in.Aggs = []exec.AggInput{
				{Kind: exec.DistinctAgg, Measure: patients},
				{Kind: exec.AvgAgg, Measure: flat.MustColumn("FBG")},
			}
			if _, err := exec.GroupBy(context.Background(), in); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.GroupBy(context.Background(), in); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(columnBytes), "column-bytes")
		})
	}
}

// BenchmarkCubeExecuteVectorized measures cube.Engine.ExecuteCtx with
// the lattice off, so every iteration runs the grouping scan on the
// coded kernel.
func BenchmarkCubeExecuteVectorized(b *testing.B) {
	e := scanEngine(b, 900)
	q := experiments.Fig5Query()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecuteCtx(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B1: warehouse/cube vs direct flat scan ------------------------------

// BenchmarkWarehouseVsFlat runs the same multivariate aggregation (the
// Fig 5 query) through the cube engine and through the no-warehouse
// direct-scan baseline, across cohort sizes. The paper's claim is that
// the warehouse intermediary makes interactive multivariate exploration
// practical; the cube should win and the gap should widen with size.
func BenchmarkWarehouseVsFlat(b *testing.B) {
	for _, patients := range []int{225, 900, 3600} {
		p := platformFor(b, patients)
		flat := p.Flat()
		e := scanEngine(b, patients)
		cq := experiments.Fig5Query()
		fq := flatquery.Query{
			Rows:    []string{"AgeBand10"},
			Cols:    []string{"Gender"},
			Filters: []flatquery.Filter{{Column: "DiabetesStatus", Values: []value.Value{value.Str("Yes")}}},
			Agg:     storage.DistinctAgg,
			Measure: "PatientID",
		}
		b.Run(benchName("cube", patients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.ExecuteCtx(context.Background(), cq); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(benchName("flat", patients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := flatquery.ExecuteCtx(context.Background(), flat, fq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDGSQLBaseline runs the Fig 5 aggregation through the DG-SQL
// style language over the flat table — the language-level form of the
// no-warehouse baseline (parse + scan + group per query).
func BenchmarkDGSQLBaseline(b *testing.B) {
	p := platformFor(b, 900)
	db := dgsql.NewDB()
	if err := db.Register("visits", p.Flat()); err != nil {
		b.Fatal(err)
	}
	const q = "SELECT AgeBand10, Gender, distinct(PatientID) AS patients FROM visits WHERE DiabetesStatus = 'Yes' GROUP BY AgeBand10, Gender"
	if _, err := db.QueryCtx(context.Background(), q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryCtx(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(kind string, patients int) string {
	switch patients {
	case 225:
		return kind + "/patients=225"
	case 900:
		return kind + "/patients=900"
	default:
		return kind + "/patients=3600"
	}
}

// --- B2: aggregate lattice on vs off --------------------------------------

// BenchmarkLattice measures repeated interactive exploration (the Fig 5
// coarse query, its drill-down, and the roll-up back) with the aggregate
// lattice enabled versus disabled. With the lattice, the roll-up after a
// drill-down is answered from cache.
func BenchmarkLattice(b *testing.B) {
	p := platformFor(b, 900)
	coarse := experiments.Fig5Query()
	// Count measure so the lattice applies (distinct is non-additive).
	coarse.Measure = cube.MeasureRef{Agg: storage.CountAgg}
	run := func(b *testing.B, useCache bool) {
		e := cube.NewEngine(p.Warehouse(), cube.WithAggregateCache(useCache))
		fine, err := e.DrillDown(coarse, core.RefAgeBand10)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.ExecuteCtx(context.Background(), fine); err != nil { // warm columns (+cache)
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.ExecuteCtx(context.Background(), fine); err != nil {
				b.Fatal(err)
			}
			if _, err := e.ExecuteCtx(context.Background(), coarse); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("lattice=on", func(b *testing.B) { run(b, true) })
	b.Run("lattice=off", func(b *testing.B) { run(b, false) })
}

// --- B3: mining over an OLAP-isolated subset -------------------------------

// BenchmarkMining measures each analytics algorithm fitting and
// predicting on warehouse features (the data-analytics feature of Fig 2).
func BenchmarkMining(b *testing.B) {
	p := platformFor(b, 900)
	ds, err := p.Mine([]string{"FBGBand", "ReflexStatus", "Gender", "AgeBandClinical", "ExerciseFrequency"},
		"DiabetesStatus")
	if err != nil {
		b.Fatal(err)
	}
	factories := map[string]func() mining.Classifier{
		"naivebayes": func() mining.Classifier { return mining.NewNaiveBayes() },
		"tree":       func() mining.Classifier { return mining.NewDecisionTree() },
		"knn":        func() mining.Classifier { return mining.NewKNN(7) },
		"awsum":      func() mining.Classifier { return mining.NewAWSum() },
	}
	for _, name := range []string{"naivebayes", "tree", "knn", "awsum"} {
		factory := factories[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clf := factory()
				if err := clf.Fit(ds); err != nil {
					b.Fatal(err)
				}
				if _, err := clf.Predict(ds.X[i%ds.Len()]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApriori measures association-rule mining over the discretised
// clinical attributes.
func BenchmarkApriori(b *testing.B) {
	p := platformFor(b, 900)
	flat := p.Flat()
	cfg := mining.AprioriConfig{MinSupport: 0.05, MinConfidence: 0.8}
	cols := []string{"FBGBand", "ReflexStatus", "DiabetesStatus", "HypertensionStatus", "ExerciseFrequency"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.Apriori(flat, cols, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Supporting substrates -------------------------------------------------

// BenchmarkMDX measures MDX parse + execute for the Fig 5 query text.
func BenchmarkMDX(b *testing.B) {
	p := platformFor(b, 900)
	src := `SELECT {[PersonalInformation].[Gender].MEMBERS} ON COLUMNS,
		{[PersonalInformation].[AgeBand10].MEMBERS} ON ROWS
		FROM [MedicalMeasures]
		WHERE ([MedicalCondition].[DiabetesStatus].[Yes], [Measures].[PatientCount])`
	if _, err := p.QueryMDXCtx(context.Background(), src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.QueryMDXCtx(context.Background(), src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkETLPipeline measures the full Fig 2 transformation layer over
// the raw cohort.
func BenchmarkETLPipeline(b *testing.B) {
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 300
	raw, err := discri.Generate(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewDiScRiPipeline().Run(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOLTPCommit measures transactional insert throughput of the
// acquisition store (in-memory, no WAL) — the "DB" box of Fig 2.
func BenchmarkOLTPCommit(b *testing.B) {
	schema := storage.MustSchema(
		storage.Field{Name: "PatientID", Kind: value.IntKind},
		storage.Field{Name: "FBG", Kind: value.FloatKind},
	)
	s, err := oltp.Open("", schema)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := s.Begin()
		if _, err := tx.Insert(oltp.Row{value.Int(int64(i)), value.Float(5.5)}); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- BENCH_4: incremental refresh vs full rebuild ------------------------

// refreshBenchStore opens a durable store seeded with the default cohort
// and returns it with the cohort table (a template for minting new
// attendances) and the PatientID column index.
func refreshBenchStore(b *testing.B, dir string) (*oltp.Store, *storage.Table, int) {
	b.Helper()
	raw, err := discri.Generate(discri.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	store, err := oltp.Open(filepath.Join(dir, "store"), raw.Schema())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	if err := store.LoadTable(raw); err != nil {
		b.Fatal(err)
	}
	pid, ok := raw.Schema().Lookup("PatientID")
	if !ok {
		b.Fatal("cohort schema has no PatientID column")
	}
	return store, raw, pid
}

// commitAttendances commits n cohort-shaped attendance rows re-keyed to
// previously unseen patients, 25 rows per transaction.
func commitAttendances(b *testing.B, store *oltp.Store, raw *storage.Table, pid int, base int64, n int) {
	b.Helper()
	for off := 0; off < n; {
		tx := store.Begin()
		for k := 0; k < 25 && off < n; k, off = k+1, off+1 {
			src := raw.Row(off % raw.Len())
			row := make(oltp.Row, len(src))
			copy(row, src)
			row[pid] = value.Int(base + int64(off))
			if _, err := tx.Insert(row); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefreshIncremental100 measures bringing the warehouse current
// after 100 new attendances arrive, using the CDC + incremental refresh
// path: tail the WAL, route the delta through the ETL, append to the
// star schema, and merge the aggregate lattice in place.
func BenchmarkRefreshIncremental100(b *testing.B) {
	dir := b.TempDir()
	store, raw, pid := refreshBenchStore(b, dir)
	m, err := refresh.New(store, refresh.Config{
		Pipeline:  core.NewDiScRiPipeline(),
		Builder:   core.NewDiScRiBuilder(),
		CursorDir: filepath.Join(dir, "cdc"),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	// Warm the lattice so iterations measure steady-state delta
	// maintenance of live aggregates, as in follow mode.
	m.RLock()
	_, err = m.Engine().ExecuteCtx(context.Background(), experiments.Fig5Query())
	m.RUnlock()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The OLTP ingest is identical in both BENCH_4 variants; the
		// timer covers only bringing the warehouse current.
		b.StopTimer()
		commitAttendances(b, store, raw, pid, int64(i+1)*1_000_000, 100)
		b.StartTimer()
		for {
			n, err := m.Refresh()
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
	}
}

// BenchmarkRefreshFullRebuild100 measures the same "warehouse current
// after 100 new attendances" operation done the batch way: snapshot the
// store, re-run the full ETL, rebuild the star schema, and stand up a
// fresh engine.
func BenchmarkRefreshFullRebuild100(b *testing.B) {
	store, raw, pid := refreshBenchStore(b, b.TempDir())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		commitAttendances(b, store, raw, pid, int64(i+1)*1_000_000, 100)
		b.StartTimer()
		snap, err := store.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		flat, err := core.NewDiScRiPipeline().Run(snap)
		if err != nil {
			b.Fatal(err)
		}
		schema, err := core.NewDiScRiBuilder().Build(flat)
		if err != nil {
			b.Fatal(err)
		}
		_ = cube.NewEngine(schema)
	}
}

// --- BENCH_7: WAL-shipping replication -----------------------------------

// replBenchStores opens durable primary and follower stores over a
// compact schema so the benchmark measures shipping, not ETL width.
func replBenchStores(b *testing.B) (dir string, primary, follower *oltp.Store) {
	b.Helper()
	dir = b.TempDir()
	schema := storage.MustSchema(
		storage.Field{Name: "PatientID", Kind: value.IntKind},
		storage.Field{Name: "FBG", Kind: value.FloatKind},
	)
	var err error
	primary, err = oltp.Open(filepath.Join(dir, "primary"), schema)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { primary.Close() })
	follower, err = oltp.Open(filepath.Join(dir, "follower"), schema)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { follower.Close() })
	return dir, primary, follower
}

func replBenchPrimary(b *testing.B, store *oltp.Store) (*repl.Primary, string) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	pr, err := repl.StartPrimary(repl.PrimaryConfig{
		Store:          store,
		Listener:       ln,
		HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pr.Close() })
	return pr, ln.Addr().String()
}

// commitReplRows commits n two-column rows, rowsPerTx per transaction.
func commitReplRows(b *testing.B, store *oltp.Store, base int64, n, rowsPerTx int) {
	b.Helper()
	for off := 0; off < n; {
		tx := store.Begin()
		for k := 0; k < rowsPerTx && off < n; k, off = k+1, off+1 {
			if _, err := tx.Insert(oltp.Row{value.Int(base + int64(off)), value.Float(5.5)}); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// dirBytes sums the file sizes directly under dir (the WAL lives flat).
func dirBytes(b *testing.B, dir string) int64 {
	b.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			continue
		}
		total += info.Size()
	}
	return total
}

func waitFollowerAt(b *testing.B, f *repl.Follower, target oltp.WALCursor) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for f.Cursor().Less(target) {
		if time.Now().After(deadline) {
			b.Fatalf("follower stuck at %s, want %s", f.Cursor(), target)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkReplCatchUp measures follower catch-up throughput: each
// iteration commits a WAL backlog while no follower is attached, then
// times a follower resuming from its durable cursor until it has
// applied the whole backlog. b.SetBytes reports the backlog's WAL
// bytes, so the headline number is MB/s of catch-up.
func BenchmarkReplCatchUp(b *testing.B) {
	dir, primary, follower := replBenchStores(b)
	_, addr := replBenchPrimary(b, primary)
	cursorDir := filepath.Join(dir, "cursor")

	// Bootstrap once so later iterations resume from a cursor (pure WAL
	// streaming, no snapshot).
	f, err := repl.StartFollower(repl.FollowerConfig{
		Store: follower, Dir: cursorDir, PrimaryAddr: addr, ID: "bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	<-f.Ready()
	f.Close()

	const txPerIter, rowsPerTx = 400, 25
	var iterBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := dirBytes(b, filepath.Join(dir, "primary"))
		commitReplRows(b, primary, int64(i+1)*1_000_000, txPerIter*rowsPerTx, rowsPerTx)
		if iterBytes == 0 {
			iterBytes = dirBytes(b, filepath.Join(dir, "primary")) - before
			b.SetBytes(iterBytes)
		}
		durable, err := primary.DurableLSN()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		f, err := repl.StartFollower(repl.FollowerConfig{
			Store: follower, Dir: cursorDir, PrimaryAddr: addr, ID: "bench",
		})
		if err != nil {
			b.Fatal(err)
		}
		waitFollowerAt(b, f, durable)
		b.StopTimer()
		f.Close()
		b.StartTimer()
	}
}

// BenchmarkReplSteadyLag measures steady-state replication lag with a
// continuously connected follower: each iteration commits one
// transaction and waits until the follower has applied it. ns/op is the
// commit-to-visible latency; the p99 over all iterations is reported as
// lag-p99-ms.
func BenchmarkReplSteadyLag(b *testing.B) {
	dir, primary, follower := replBenchStores(b)
	_, addr := replBenchPrimary(b, primary)
	f, err := repl.StartFollower(repl.FollowerConfig{
		Store: follower, Dir: filepath.Join(dir, "cursor"), PrimaryAddr: addr, ID: "bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	<-f.Ready()

	lags := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commitReplRows(b, primary, int64(i+1)*1_000_000, 5, 5)
		durable, err := primary.DurableLSN()
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		waitFollowerAt(b, f, durable)
		lags = append(lags, time.Since(start))
	}
	b.StopTimer()
	if len(lags) > 0 {
		sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
		p99 := lags[len(lags)*99/100]
		b.ReportMetric(float64(p99.Nanoseconds())/1e6, "lag-p99-ms")
	}
}
