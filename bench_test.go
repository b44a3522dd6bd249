package ddgms_test

// The micro-benchmarks the frozen benchmark (benchmark/, BENCHMARK.json)
// cannot see: the Table I discretisers, the B3 mining algorithms over an
// OLAP-isolated subset, and WAL-shipping replication (BENCH_7). Every
// query, ETL, commit and refresh timing is a BENCHMARK.json metric
// instead; EXPERIMENTS.md cites both. Run with:
//
//	go test -run '^$' -bench 'Repl|Mining|Apriori|TableI' -benchmem .
//
// The absolute numbers depend on the host.

import (
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/etl"
	"github.com/ddgms/ddgms/internal/mining"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/repl"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

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
