// Command ddgms is the DD-DGMS command-line front end: it drives the
// platform phases over files on disk, using the storage engine's binary
// table format (.ddgt) between stages.
//
// Subcommands:
//
//	generate  -out raw.ddgt [-patients N] [-seed S] [-csv]
//	transform -in raw.ddgt -out flat.ddgt [-csv]
//	query     -in flat.ddgt [-chart] 'SELECT ... FROM [MedicalMeasures] ...'
//	mine      -in flat.ddgt [-algo nb|tree|knn|awsum] [-folds K]
//	rules     -in flat.ddgt [-support S] [-confidence C] [-top N]
//	predict   -in flat.ddgt [-state preDiabetic]
//	stability -in flat.ddgt
//	serve     -in flat.ddgt [-addr A] | -follow -data DIR | -replicate-from A -replica-id ID -data DIR
//	route     -backends URL,URL [-addr A] [-max-staleness D]
//	report    -in flat.ddgt
//	sql       -in flat.ddgt 'SELECT ... FROM visits ...'
//	can       -in flat.ddgt
//
// serve and route take further governance and replication flags; -h on
// either lists them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/dgsql"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/ewing"
	"github.com/ddgms/ddgms/internal/govern"
	"github.com/ddgms/ddgms/internal/mining"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/report"
	"github.com/ddgms/ddgms/internal/router"
	"github.com/ddgms/ddgms/internal/server"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
	"github.com/ddgms/ddgms/internal/viz"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "generate":
		err = cmdGenerate(args)
	case "transform":
		err = cmdTransform(args)
	case "query":
		err = cmdQuery(args)
	case "mine":
		err = cmdMine(args)
	case "rules":
		err = cmdRules(args)
	case "predict":
		err = cmdPredict(args)
	case "stability":
		err = cmdStability(args)
	case "serve":
		err = cmdServe(args)
	case "route":
		err = cmdRoute(args)
	case "report":
		err = cmdReport(args)
	case "sql":
		err = cmdSQL(args)
	case "can":
		err = cmdCAN(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddgms %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ddgms <command> [flags]

commands:
  generate   synthesise the DiScRi cohort to a table file
  transform  run the ETL pipeline (cleaning, Table I discretisation, cardinality)
  query      execute an MDX query against the warehouse built from a flat table
  mine       cross-validate a classifier on warehouse features
  rules      mine association rules (Apriori) from discretised attributes
  predict    fit the FBG disease-trajectory Markov model and report transitions
  stability  run the decision-optimisation dimension-ablation check
  serve      expose the warehouse over HTTP/JSON (the CDS service model)
  route      replica-aware routing front over a set of serve nodes
  report     render the strategic screening-programme report
  sql        run a DG-SQL-style query directly over a flat table (no warehouse)
  can        Ewing battery CAN assessment and hand-grip substitute ranking`)
}

func readTable(path string) (*storage.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return storage.ReadBinary(f)
}

func writeTable(path string, t *storage.Table, asCSV bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if asCSV {
		return t.WriteCSV(f)
	}
	return t.WriteBinary(f)
}

// platformFromFlat rebuilds the warehouse from an already-transformed
// table file.
func platformFromFlat(path string) (*core.Platform, error) {
	flat, err := readTable(path)
	if err != nil {
		return nil, err
	}
	p := core.New(core.Config{})
	if err := p.Acquire(flat); err != nil {
		return nil, err
	}
	// The table is already transformed; run an empty pipeline.
	if err := p.StartFollow(core.FollowConfig{
		Pipeline: core.NewPassthroughPipeline(),
		Builder:  core.NewDiScRiBuilder(),
		Setup:    core.FinishDiScRiSetup,
	}); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	out := fs.String("out", "raw.ddgt", "output path")
	patients := fs.Int("patients", 900, "cohort size")
	seed := fs.Int64("seed", 0, "generator seed (0 = paper default)")
	asCSV := fs.Bool("csv", false, "write CSV instead of the binary format")
	fs.Parse(args)
	cfg := discri.DefaultConfig()
	cfg.Patients = *patients
	if *seed != 0 {
		cfg.Seed = *seed
	}
	tbl, err := discri.Generate(cfg)
	if err != nil {
		return err
	}
	if err := writeTable(*out, tbl, *asCSV); err != nil {
		return err
	}
	fmt.Printf("wrote %d attendances × %d attributes to %s\n", tbl.Len(), tbl.Schema().Len(), *out)
	return nil
}

func cmdTransform(args []string) error {
	fs := flag.NewFlagSet("transform", flag.ExitOnError)
	in := fs.String("in", "raw.ddgt", "input path (binary table)")
	out := fs.String("out", "flat.ddgt", "output path")
	asCSV := fs.Bool("csv", false, "write CSV instead of the binary format")
	fs.Parse(args)
	raw, err := readTable(*in)
	if err != nil {
		return err
	}
	flat, err := core.NewDiScRiPipeline().Run(raw)
	if err != nil {
		return err
	}
	if err := writeTable(*out, flat, *asCSV); err != nil {
		return err
	}
	fmt.Printf("transformed %d rows: %d -> %d columns, steps: %s\n",
		flat.Len(), raw.Schema().Len(), flat.Schema().Len(),
		strings.Join(core.NewDiScRiPipeline().Steps(), ", "))
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	in := fs.String("in", "flat.ddgt", "transformed table path")
	chart := fs.Bool("chart", false, "render as bar chart")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("need an MDX query argument")
	}
	p, err := platformFromFlat(*in)
	if err != nil {
		return err
	}
	defer p.Close()
	cs, err := p.QueryMDXCtx(context.Background(), strings.Join(fs.Args(), " "))
	if err != nil {
		return err
	}
	if *chart {
		return viz.GroupedBarChart(os.Stdout, "", cs)
	}
	return viz.CrossTab(os.Stdout, "", cs)
}

func cmdMine(args []string) error {
	fs := flag.NewFlagSet("mine", flag.ExitOnError)
	in := fs.String("in", "flat.ddgt", "transformed table path")
	algo := fs.String("algo", "nb", "classifier: nb, tree, knn, awsum")
	folds := fs.Int("folds", 5, "cross-validation folds")
	fs.Parse(args)
	p, err := platformFromFlat(*in)
	if err != nil {
		return err
	}
	defer p.Close()
	ds, err := p.Mine([]string{"FBGBand", "ReflexStatus", "Gender", "AgeBandClinical", "ExerciseFrequency"},
		"DiabetesStatus")
	if err != nil {
		return err
	}
	factory, err := classifierFactory(*algo)
	if err != nil {
		return err
	}
	cm, err := mining.CrossValidate(factory, ds, *folds, 1)
	if err != nil {
		return err
	}
	fmt.Printf("%s, %d-fold stratified cross-validation on %d attendances:\n%s",
		*algo, *folds, ds.Len(), cm)
	return nil
}

func classifierFactory(algo string) (func() mining.Classifier, error) {
	switch algo {
	case "nb":
		return func() mining.Classifier { return mining.NewNaiveBayes() }, nil
	case "tree":
		return func() mining.Classifier { return mining.NewDecisionTree() }, nil
	case "knn":
		return func() mining.Classifier { return mining.NewKNN(7) }, nil
	case "awsum":
		return func() mining.Classifier { return mining.NewAWSum() }, nil
	}
	return nil, fmt.Errorf("unknown classifier %q", algo)
}

func cmdRules(args []string) error {
	fs := flag.NewFlagSet("rules", flag.ExitOnError)
	in := fs.String("in", "flat.ddgt", "transformed table path")
	support := fs.Float64("support", 0.05, "minimum support")
	confidence := fs.Float64("confidence", 0.8, "minimum confidence")
	top := fs.Int("top", 20, "rules to print")
	fs.Parse(args)
	flat, err := readTable(*in)
	if err != nil {
		return err
	}
	rules, err := mining.Apriori(flat,
		[]string{"FBGBand", "ReflexStatus", "DiabetesStatus", "HypertensionStatus", "ExerciseFrequency"},
		mining.AprioriConfig{MinSupport: *support, MinConfidence: *confidence})
	if err != nil {
		return err
	}
	if len(rules) > *top {
		rules = rules[:*top]
	}
	for _, r := range rules {
		fmt.Println(r)
	}
	fmt.Printf("(%d rules)\n", len(rules))
	return nil
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	in := fs.String("in", "flat.ddgt", "transformed table path")
	state := fs.String("state", "preDiabetic", "state to predict from")
	fs.Parse(args)
	p, err := platformFromFlat(*in)
	if err != nil {
		return err
	}
	defer p.Close()
	m, err := p.TrajectoryModel("PatientID", "VisitDate", "FBG", core.FBGScheme)
	if err != nil {
		return err
	}
	dist, err := m.Next(*state)
	if err != nil {
		return err
	}
	fmt.Printf("next-state distribution from %q:\n", *state)
	for _, sp := range dist {
		fmt.Printf("  %-12s %.3f\n", sp.State, sp.P)
	}
	stat, err := m.Stationary(500)
	if err != nil {
		return err
	}
	fmt.Println("long-run state occupancy:")
	for _, sp := range stat {
		fmt.Printf("  %-12s %.3f\n", sp.State, sp.P)
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	in := fs.String("in", "flat.ddgt", "transformed table path")
	addr := fs.String("addr", "127.0.0.1:8360", "listen address")
	queryTimeout := fs.Duration("query-timeout", 30*time.Second, "per-request /query deadline (0 disables)")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain deadline")
	maxConcurrent := fs.Int("max-concurrent", 2*runtime.GOMAXPROCS(0), "max concurrently evaluating queries (0 disables admission control)")
	queueDepth := fs.Int("queue", 64, "admission wait-queue depth; beyond it requests shed with 429")
	queueWait := fs.Duration("queue-wait", time.Second, "max time a query may wait for an admission slot before 503")
	scanBudget := fs.Int64("scan-budget", 0, "per-query scanned-row budget; exceeding it answers 422 (0 disables)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	follow := fs.Bool("follow", false, "follow mode: serve from a durable OLTP store and keep the warehouse fresh via CDC")
	dataDir := fs.String("data", "", "OLTP store directory (required with -follow; seeded with a synthetic cohort when empty)")
	patients := fs.Int("patients", 900, "cohort size used to seed an empty -follow store")
	simulate := fs.Duration("simulate", 0, "with -follow, commit one synthetic follow-up attendance per interval (0 disables)")
	replListen := fs.String("replicate-listen", "", "with -follow, also ship the WAL to followers on this address")
	replFrom := fs.String("replicate-from", "", "run as a read replica of the primary's -replicate-listen address (implies follow mode; requires -data)")
	replicaID := fs.String("replica-id", "", "stable follower identity at the primary (required with -replicate-from)")
	replMaxLag := fs.Uint64("repl-max-lag-segments", 0, "with -replicate-listen, evict followers lagging more than this many WAL segments (0 = default)")
	promoteListen := fs.String("promote-listen", "", "replication listen address this node binds if promoted: used when POST /promote omits a listen field and, with -peers, lets the node stand for election (give it to every node of a self-electing cluster)")
	peers := fs.String("peers", "", "comma-separated base URLs of the cluster's OTHER nodes (not a routing front) enabling self-healing and election: a follower whose primary stays silent re-homes to a successor or, with -promote-listen, stands for election by a strict majority of these nodes plus itself; a superseded ex-primary demotes and rejoins")
	fs.Parse(args)
	if *replFrom != "" && *follow {
		return fmt.Errorf("-replicate-from implies follow mode; drop -follow")
	}
	if *replFrom != "" && *simulate > 0 {
		return fmt.Errorf("-simulate needs local writes, which a replica refuses")
	}
	if *replListen != "" && !*follow {
		return fmt.Errorf("-replicate-listen requires -follow (the WAL to ship lives in the durable store)")
	}
	following := *follow || *replFrom != ""
	var p *core.Platform
	var breaker *govern.Breaker
	var err error
	switch {
	case *replFrom != "":
		p, breaker, err = replicaPlatform(*dataDir, *replFrom, *replicaID)
	case *follow:
		p, breaker, err = followPlatform(*dataDir, *patients)
	default:
		p, err = platformFromFlat(*in)
	}
	if err != nil {
		return err
	}
	defer p.Close()
	if *replListen != "" {
		ln, err := net.Listen("tcp", *replListen)
		if err != nil {
			return fmt.Errorf("replication listener: %w", err)
		}
		if err := p.AttachPrimary(core.ReplicateListenConfig{
			Listener:       ln,
			MaxLagSegments: *replMaxLag,
		}); err != nil {
			ln.Close()
			return err
		}
		fmt.Printf("shipping WAL to followers on %s\n", ln.Addr())
	}
	if *promoteListen != "" {
		p.SetPromoteListen(*promoteListen)
	}
	if *peers != "" {
		if *replicaID == "" {
			return fmt.Errorf("-peers requires -replica-id (the identity this node re-homes under)")
		}
		if *dataDir == "" {
			return fmt.Errorf("-peers requires -data (the re-homed follower's cursor lives there)")
		}
		var plist []string
		for _, u := range strings.Split(*peers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				plist = append(plist, strings.TrimRight(u, "/"))
			}
		}
		if err := p.EnableSelfHeal(core.SelfHealConfig{
			Peers:     plist,
			ID:        *replicaID,
			CursorDir: filepath.Join(*dataDir, "repl"),
		}); err != nil {
			return err
		}
		fmt.Printf("self-healing enabled over %d peers\n", len(plist))
	}

	srvOpts := []server.Option{server.WithQueryTimeout(*queryTimeout)}
	if *maxConcurrent > 0 {
		srvOpts = append(srvOpts, server.WithAdmission(
			govern.NewAdmission(*maxConcurrent, *queueDepth, *queueWait)))
	}
	if *scanBudget > 0 {
		budget := *scanBudget
		srvOpts = append(srvOpts, server.WithQueryBudget(func() *govern.Budget {
			return govern.NewBudget(budget, 0, 0)
		}))
	}
	if breaker != nil {
		srvOpts = append(srvOpts, server.WithBreaker(breaker))
	}
	h := server.New(p, srvOpts...)
	var handler http.Handler = h
	if *pprofOn {
		// The profiling endpoints live on an outer mux so they bypass the
		// server's drain/panic/metrics middleware: a CPU profile must keep
		// streaming even while the app handler is shutting down.
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", h)
		handler = outer
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if following {
		go func() {
			if err := p.RunFollow(ctx); err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "follow loop: %v\n", err)
			}
		}()
		if *simulate > 0 {
			go simulateVisits(ctx, p.Store(), *simulate)
		}
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	endpoints := "/healthz /schema /query /sql /flatquery /findings /metrics /debug/traces"
	if following {
		endpoints += " /freshness"
	}
	if *replListen != "" || *replFrom != "" {
		endpoints += " /replication"
	}
	if *pprofOn {
		endpoints += " /debug/pprof/"
	}
	fmt.Printf("serving DD-DGMS on http://%s (endpoints: %s)\n", *addr, endpoints)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	fmt.Fprintln(os.Stderr, "shutting down, draining in-flight requests...")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the application handler first (stops admitting, waits for
	// in-flight queries), then close listeners and idle connections.
	if err := h.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "drain incomplete: %v\n", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// cmdRoute runs the replica-aware routing front: one address fanning
// traffic over a cluster of serve nodes. Writes go to the current
// primary (resolved by epoch from each backend's /replication), reads
// are balanced over followers within the staleness bound, and the
// /cluster endpoint shows the resolved view. After a promotion the
// front re-homes client traffic on its own — no client reconfiguration.
// The front keeps no state and decides no failover (serve -peers nodes
// elect among themselves), so several fronts may run side by side.
func cmdRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8350", "listen address")
	backends := fs.String("backends", "", "comma-separated backend base URLs, e.g. http://127.0.0.1:8360,http://127.0.0.1:8361")
	maxStaleness := fs.Duration("max-staleness", 5*time.Second, "max follower replication staleness for balanced reads")
	poll := fs.Duration("poll", 250*time.Millisecond, "backend health/replication probe cadence")
	probeTimeout := fs.Duration("probe-timeout", 2*time.Second, "per-probe request deadline")
	probeBackoffMax := fs.Duration("probe-backoff-max", 5*time.Second, "cap on the exponential probe backoff for persistently dead backends")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain deadline")
	fs.Parse(args)
	if *backends == "" {
		return fmt.Errorf("-backends is required (comma-separated base URLs)")
	}
	var list []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			list = append(list, b)
		}
	}
	rt, err := router.New(router.Config{
		Backends:        list,
		PollEvery:       *poll,
		MaxStaleness:    *maxStaleness,
		ProbeTimeout:    *probeTimeout,
		ProbeBackoffMax: *probeBackoffMax,
		Log:             log.Default(),
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("routing DD-DGMS on http://%s over %d backends (front endpoints: /cluster /routerz /metrics)\n",
		*addr, len(list))

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "shutting down router, draining in-flight requests...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// followPlatform stands a platform up in follow mode: open (or create)
// the durable OLTP store, seed it with the synthetic cohort when empty,
// and start the CDC-driven incremental warehouse maintainer. The
// returned breaker watches the store's health (a poisoned WAL fails
// every commit) and gates both refresh batches and, via the server,
// query admission — fast 503s instead of timeouts when the store is
// sick.
func followPlatform(dataDir string, patients int) (*core.Platform, *govern.Breaker, error) {
	if dataDir == "" {
		return nil, nil, fmt.Errorf("-follow requires -data DIR")
	}
	cfg := discri.DefaultConfig()
	cfg.Patients = patients
	raw, err := discri.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	p := core.New(core.Config{DataDir: dataDir, Log: log.Default()})
	if err := p.OpenStore(raw.Schema()); err != nil {
		return nil, nil, err
	}
	if p.Store().Len() == 0 {
		if err := p.Store().LoadTable(raw); err != nil {
			p.Close()
			return nil, nil, err
		}
		fmt.Printf("seeded empty store with %d attendances\n", raw.Len())
	} else {
		fmt.Printf("reopened store with %d attendances\n", p.Store().Len())
	}
	return startFollow(p)
}

// startFollow stands the warehouse up over p's durable store. The
// returned breaker watches the store's health and gates refresh batches.
func startFollow(p *core.Platform) (*core.Platform, *govern.Breaker, error) {
	breaker := govern.NewBreaker(govern.BreakerConfig{
		Name:   "oltp",
		Health: p.Store().Healthy,
	})
	if err := p.StartFollow(core.FollowConfig{
		Pipeline: core.NewDiScRiPipeline(),
		Builder:  core.NewDiScRiBuilder(),
		Setup:    core.FinishDiScRiSetup,
		Breaker:  breaker,
		Log:      log.Default(),
	}); err != nil {
		p.Close()
		return nil, nil, err
	}
	return p, breaker, nil
}

// replicaPlatform stands a platform up as a read replica: open the
// durable store (created empty on first run — the primary's stream
// fills it), connect the WAL-shipping follower, wait for the initial
// sync when the store is empty so the warehouse does not bootstrap
// over nothing, then start the same CDC-driven maintainer follow mode
// uses. Local writes
// are refused for the process lifetime; the replica serves reads only.
func replicaPlatform(dataDir, primaryAddr, replicaID string) (*core.Platform, *govern.Breaker, error) {
	if dataDir == "" {
		return nil, nil, fmt.Errorf("-replicate-from requires -data DIR")
	}
	if replicaID == "" {
		return nil, nil, fmt.Errorf("-replicate-from requires -replica-id (a stable name; it keys WAL retention at the primary)")
	}
	// The store needs the cohort schema up front; the rows come from the
	// primary.
	cfg := discri.DefaultConfig()
	cfg.Patients = 1
	raw, err := discri.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	p := core.New(core.Config{DataDir: dataDir, Log: log.Default()})
	if err := p.OpenStore(raw.Schema()); err != nil {
		return nil, nil, err
	}
	if err := p.AttachReplica(core.ReplicateFromConfig{
		PrimaryAddr: primaryAddr,
		ID:          replicaID,
		CursorDir:   filepath.Join(dataDir, "repl"),
	}); err != nil {
		p.Close()
		return nil, nil, err
	}
	// Only an empty store waits for the first sync: a restarted replica
	// serves what it has, and must come up (and let -peers elect) even
	// when its primary is gone.
	if p.Store().Len() == 0 {
		fmt.Printf("replica %q syncing from %s...\n", replicaID, primaryAddr)
		<-p.ReplicaReady()
	}
	fmt.Printf("replica %q of %s: %d attendances\n", replicaID, primaryAddr, p.Store().Len())
	return startFollow(p)
}

// simulateVisits commits one synthetic follow-up attendance per tick: a
// random existing attendance is re-booked about three months later with
// a drifted fasting glucose, exercising commit -> CDC -> incremental
// refresh end to end (watch it on /freshness).
func simulateVisits(ctx context.Context, st *oltp.Store, every time.Duration) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if err := simulateOneVisit(st, rng); err != nil {
			fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		}
	}
}

func simulateOneVisit(st *oltp.Store, rng *rand.Rand) error {
	snap, err := st.Snapshot()
	if err != nil {
		return err
	}
	if snap.Len() == 0 {
		return nil
	}
	row := snap.Row(rng.Intn(snap.Len()))
	schema := st.Schema()
	if j, ok := schema.Lookup("VisitDate"); ok && !row[j].IsNA() {
		row[j] = value.Time(row[j].Time().AddDate(0, 3, rng.Intn(29)-14))
	}
	if j, ok := schema.Lookup("FBG"); ok && !row[j].IsNA() {
		row[j] = value.Float(row[j].Float() + rng.NormFloat64()*0.4)
	}
	tx := st.Begin()
	if _, err := tx.Insert(oltp.Row(row)); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	in := fs.String("in", "flat.ddgt", "transformed table path")
	fs.Parse(args)
	p, err := platformFromFlat(*in)
	if err != nil {
		return err
	}
	defer p.Close()
	return report.Write(os.Stdout, p, report.Options{})
}

func cmdSQL(args []string) error {
	fs := flag.NewFlagSet("sql", flag.ExitOnError)
	in := fs.String("in", "flat.ddgt", "table path (registered as 'visits')")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("need a SQL query argument, e.g. \"SELECT Gender, count(*) FROM visits GROUP BY Gender\"")
	}
	tbl, err := readTable(*in)
	if err != nil {
		return err
	}
	db := dgsql.NewDB()
	if err := db.Register("visits", tbl); err != nil {
		return err
	}
	out, err := db.QueryCtx(context.Background(), strings.Join(fs.Args(), " "))
	if err != nil {
		return err
	}
	return out.WriteCSV(os.Stdout)
}

func cmdCAN(args []string) error {
	fs := flag.NewFlagSet("can", flag.ExitOnError)
	in := fs.String("in", "flat.ddgt", "transformed table path")
	fs.Parse(args)
	flat, err := readTable(*in)
	if err != nil {
		return err
	}
	battery := ewing.StandardBattery()
	sum, err := ewing.Summarise(flat, battery)
	if err != nil {
		return err
	}
	fmt.Printf("Ewing battery over %d attendances:\n", sum.Total)
	for _, r := range []ewing.Risk{ewing.RiskNormal, ewing.RiskEarly, ewing.RiskDefinite, ewing.RiskSevere, ewing.RiskUnknown} {
		fmt.Printf("  %-10s %d\n", r, sum.ByRisk[r])
	}
	fmt.Printf("hand-grip missing: %d\n\n", sum.MissingGrip)
	candidates := []ewing.Test{
		{Name: "rr-variability", Column: "RRVariability", NormalMin: 30, AbnormalMax: 15},
		{Name: "postural drop", Column: "PosturalDrop", NormalMin: 10, AbnormalMax: 25, Invert: true},
		{Name: "monofilament", Column: "MonofilamentScore", NormalMin: 8, AbnormalMax: 5},
	}
	ranked, err := ewing.RankSubstitutes(flat, battery, "sustained hand grip", candidates)
	if err != nil {
		return err
	}
	fmt.Println("hand-grip substitutes by risk-category agreement:")
	for _, ev := range ranked {
		fmt.Printf("  %-20s %.3f (%d evaluable)\n", ev.Candidate, ev.Agreement, ev.Evaluable)
	}
	return nil
}

func cmdStability(args []string) error {
	fs := flag.NewFlagSet("stability", flag.ExitOnError)
	in := fs.String("in", "flat.ddgt", "transformed table path")
	fs.Parse(args)
	p, err := platformFromFlat(*in)
	if err != nil {
		return err
	}
	defer p.Close()
	base := cube.Query{
		Rows:    []cube.AttrRef{core.RefGender},
		Cols:    []cube.AttrRef{core.RefDiabetes},
		Measure: cube.MeasureRef{Agg: storage.CountAgg},
	}
	rep, err := p.ValidateStability(base,
		[]cube.AttrRef{core.RefExercise, core.RefFBGBand, core.RefRRVarBand}, 1e-9)
	if err != nil {
		return err
	}
	fmt.Println("dimension-ablation stability of gender × diabetes counts:")
	for _, r := range rep.Results {
		fmt.Printf("  %-36s maxRelDelta=%.3g missingShare=%.3f stable=%v\n",
			r.Candidate, r.MaxRelDelta, r.MissingShare, r.Stable)
	}
	return nil
}
