package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/dgsql"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/flatquery"
	"github.com/ddgms/ddgms/internal/mdx"
	"github.com/ddgms/ddgms/internal/router"
)

// The traced pass. Spans are recorded here, from outside, around calls
// into each layer's public functions: the same request is sent over the
// loopback listener, handed to the server's ServeHTTP on a recorder,
// handed to the platform's query method, and handed to the parser and
// the engine below that, one call after the other on one goroutine with
// the follow loop halted. A layer's self time is its call minus the call
// it makes, request by request. This file is the only place that names
// functions below internal/server and internal/core.

const (
	maxReplay    = 1000 // of the workload's own reads
	minProbes    = 60   // operations of each kind, so that every layer is measured on every workload
	missProbes   = 50   // cube queries re-run against emptied caches
	routerProbes = 100
)

// replayRows is how many commits the traced pass makes: the workload's
// own share if it writes, the probe minimum if it does not.
func replayRows(w workload) int {
	if w.txRate > 0 {
		return 200
	}
	return minProbes
}

type span struct {
	Request int    `json:"request"`
	Layer   string `json:"layer"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// readTimes are one read request's wall times per layer, in µs.
type readTimes struct {
	kind                                 kind
	plain                                float64 // round trip with no span recorded
	http, viaRouter, server, core, parse float64
	execute                              float64 // cube, dgsql or flatquery execute
	bytes                                float64
}

type layerTrace struct {
	t0               time.Time
	spans            []span
	transform, build time.Duration
	marks            []promSnapshot // before set-up, before the timed phases, after them

	reads          []readTimes
	miss           []float64 // cube execute on emptied caches, µs
	commit, batch  []float64 // µs, ms
	latticeEntries int
	flatRows       int
	diskPerRow     float64
}

// newLayerTrace times the two set-up stages that the follow-mode
// bootstrap runs fused, on a cohort of their own, and takes the first
// registry reading.
func newLayerTrace(patients int) (*layerTrace, error) {
	cfg := discri.DefaultConfig()
	cfg.Patients = patients
	raw, err := discri.Generate(cfg)
	if err != nil {
		return nil, err
	}
	lt := &layerTrace{}
	t0 := time.Now()
	flat, err := core.NewDiScRiPipeline().Run(raw)
	if err != nil {
		return nil, err
	}
	lt.transform = time.Since(t0)
	t0 = time.Now()
	if _, err := core.NewDiScRiBuilder().Build(flat); err != nil {
		return nil, err
	}
	lt.build = time.Since(t0)
	lt.t0 = time.Now()
	return lt, lt.mark()
}

func (lt *layerTrace) mark() error {
	snap, err := scrape()
	lt.marks = append(lt.marks, snap)
	return err
}

// timed runs fn inside a span and returns its wall time in µs.
func (lt *layerTrace) timed(req int, layer, parent string, fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	lt.spans = append(lt.spans, span{req, layer, parent, start.Sub(lt.t0).Nanoseconds(), end.Sub(lt.t0).Nanoseconds()})
	if err != nil {
		return 0, fmt.Errorf("traced pass, request %d, %s: %w", req, layer, err)
	}
	return us(end.Sub(start)), nil
}

// replay drives the workload's first reads (as many as fit before the
// deadline), then the probes, then the writer's rows, through the layers.
func (lt *layerTrace) replay(e *env, own, probes []*request, wr *writer, deadline time.Time) error {
	e.haltFollow()
	for n := 1; n > 0; {
		var err error
		if n, err = e.p.Refresh(); err != nil {
			return err
		}
	}
	lt.latticeEntries = e.p.Engine().LatticeSize()
	lt.flatRows = e.p.Flat().Len()

	front, err := router.New(router.Config{Backends: []string{e.url}, PollEvery: 50 * time.Millisecond})
	if err != nil {
		return err
	}
	defer front.Close()
	front.ProbeOnce()
	frontSrv := httptest.NewServer(front)
	defer frontSrv.Close()

	own = own[:min(len(own), maxReplay)]
	reads := append(own[:len(own):len(own)], probes...)
	ctx := context.Background()
	var buf bytes.Buffer
	serve := func(h http.Handler, r *request) func() error {
		return func() error {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
			req.Header.Set("Content-Type", "application/json")
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
			}
			return nil
		}
	}
	post := func(base string, r *request) func() error {
		return func() error {
			if status, err := e.post(base, r, &buf); err != nil || status != 200 {
				return fmt.Errorf("status %d: %v", status, err)
			}
			return nil
		}
	}
	for i, r := range reads {
		if i < len(own) && time.Now().After(deadline) {
			continue
		}
		times := readTimes{kind: r.kind}
		// The round trip is timed twice, with and without a span; which
		// goes first alternates, because the second finds warmer caches.
		plain := func() error {
			t0 := time.Now()
			err := post(e.url, r)()
			times.plain = us(time.Since(t0))
			return err
		}
		traced := func() (err error) {
			times.http, err = lt.timed(i, "http", "", post(e.url, r))
			return err
		}
		if i%2 == 1 {
			plain, traced = traced, plain
		}
		if err := plain(); err != nil {
			return err
		}
		if err := traced(); err != nil {
			return err
		}
		times.bytes = float64(buf.Len())
		// The routing front proxies to the same listener, so its hop is
		// its round trip minus the direct one.
		if i < routerProbes {
			if times.viaRouter, err = lt.timed(i, "router", "", post(frontSrv.URL, r)); err != nil {
				return err
			}
		}
		if times.server, err = lt.timed(i, "server", "http", serve(e.handler, r)); err != nil {
			return err
		}
		switch r.kind {
		case kindMDX:
			times.core, err = lt.timed(i, "core.mdx", "server", func() error { _, err := e.p.QueryMDXCtx(ctx, r.text); return err })
			if err == nil {
				times.parse, err = lt.timed(i, "mdx.parse", "core.mdx", func() error { _, err := mdx.Parse(r.text); return err })
			}
			if err == nil {
				times.execute, err = lt.timed(i, "cube.execute", "core.mdx", func() error { _, err := e.p.Engine().ExecuteCtx(ctx, r.cube); return err })
			}
		case kindSQL:
			var stmt *dgsql.Stmt
			db := dgsql.NewDB()
			if err := db.Register(core.FlatTableName, e.p.Flat()); err != nil {
				return err
			}
			times.core, err = lt.timed(i, "core.sql", "server", func() error { _, err := e.p.QuerySQLCtx(ctx, r.text); return err })
			if err == nil {
				times.parse, err = lt.timed(i, "dgsql.parse", "core.sql", func() (err error) { stmt, err = dgsql.Parse(r.text); return err })
			}
			if err == nil {
				times.execute, err = lt.timed(i, "dgsql.execute", "core.sql", func() error { _, err := db.ExecuteCtx(ctx, stmt); return err })
			}
		case kindFlat:
			times.core, err = lt.timed(i, "core.flat", "server", func() error { _, err := e.p.QueryFlatCtx(ctx, r.flat); return err })
			if err == nil {
				times.execute, err = lt.timed(i, "flatquery.execute", "core.flat", func() error { _, err := flatquery.ExecuteCtx(ctx, e.p.Flat(), r.flat); return err })
			}
		}
		if err != nil {
			return err
		}
		lt.reads = append(lt.reads, times)
	}
	for i, row := range wr.rows {
		i += len(reads)
		d, err := lt.timed(i, "oltp.commit", "", func() error { return e.commit(row) })
		if err != nil {
			return err
		}
		wr.committed++
		lt.commit = append(lt.commit, d)
		if d, err = lt.timed(i, "refresh.batch", "", func() error {
			if n, err := e.p.Refresh(); err != nil || n != 1 {
				return fmt.Errorf("applied %d transactions: %v", n, err)
			}
			return nil
		}); err != nil {
			return err
		}
		lt.batch = append(lt.batch, d/1000)
		if _, err := e.p.Refresh(); err != nil { // acknowledge the cursor, outside the span
			return err
		}
	}

	missed := 0
	for i, r := range reads {
		if r.kind != kindMDX || missed == missProbes {
			continue
		}
		missed++
		e.p.Engine().InvalidateCaches()
		d, err := lt.timed(i, "cube.execute.miss", "core.mdx", func() error { _, err := e.p.Engine().ExecuteCtx(ctx, r.cube); return err })
		if err != nil {
			return err
		}
		lt.miss = append(lt.miss, d)
	}

	if err := e.p.Store().Checkpoint(); err != nil {
		return err
	}
	lt.diskPerRow = dirBytes(e.dir) / float64(e.p.Store().Len())
	return nil
}

// write stores the spans as <dir>/<workload>.trace.json.
func (lt *layerTrace) write(dir, workload string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(lt.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}

// metrics turns the spans and the registry readings into the per-layer
// metrics. latency and late are phase 1's.
func (lt *layerTrace) metrics(st stages, latency, late []float64) map[string]metric {
	col := func(keep func(readTimes) bool, f func(readTimes) float64) []float64 {
		var xs []float64
		for _, r := range lt.reads {
			if keep(r) {
				xs = append(xs, f(r))
			}
		}
		return xs
	}
	all := func(readTimes) bool { return true }
	is := func(k kind) func(readTimes) bool { return func(r readTimes) bool { return r.kind == k } }

	final, _ := scrape()
	built := lt.marks[1].since(lt.marks[0])  // set-up and warm-up
	loaded := lt.marks[2].since(lt.marks[1]) // the timed phases
	written := final.since(lt.marks[1])      // the timed phases and the replay
	reads := loaded.family("ddgms_http_requests_total")
	admitted := loaded["ddgms_govern_admitted_total"]
	shed := loaded.family("ddgms_govern_shed_total")
	lookups := loaded.family("ddgms_cube_lattice_total")
	commits := written[`ddgms_oltp_commits_total{status="ok"}`]
	flatExecute := median(col(is(kindFlat), func(r readTimes) float64 { return r.execute }))

	m := map[string]metric{
		"discri.generate_s":   {st.generate.Seconds(), "s"},
		"oltp.load_s":         {st.load.Seconds(), "s"},
		"refresh.bootstrap_s": {st.bootstrap.Seconds(), "s"},
		"etl.transform_s":     {lt.transform.Seconds(), "s"},
		"star.build_s":        {lt.build.Seconds(), "s"},

		"server.net_p50_us":        {median(col(all, func(r readTimes) float64 { return r.http - r.server })), "us"},
		"server.self_p50_us":       {median(col(all, func(r readTimes) float64 { return r.server - r.core })), "us"},
		"server.resp_bytes_p50":    {median(col(all, func(r readTimes) float64 { return r.bytes })), "bytes"},
		"router.hop_p50_us":        {median(col(func(r readTimes) bool { return r.viaRouter > 0 }, func(r readTimes) float64 { return r.viaRouter - r.http })), "us"},
		"mdx.parse_p50_us":         {median(col(is(kindMDX), func(r readTimes) float64 { return r.parse })), "us"},
		"mdx.query_p50_us":         {median(col(is(kindMDX), func(r readTimes) float64 { return r.core - r.execute })), "us"},
		"cube.execute_hit_p50_us":  {median(col(is(kindMDX), func(r readTimes) float64 { return r.execute })), "us"},
		"cube.execute_miss_p50_us": {median(lt.miss), "us"},
		"dgsql.parse_p50_us":       {median(col(is(kindSQL), func(r readTimes) float64 { return r.parse })), "us"},
		"dgsql.execute_p50_us":     {median(col(is(kindSQL), func(r readTimes) float64 { return r.execute })), "us"},
		"flatquery.execute_p50_us": {flatExecute, "us"},
		"exec.scan_ns_per_row":     {1000 * flatExecute / float64(lt.flatRows), "ns"},
		"oltp.commit_p50_us":       {percentile(lt.commit, 50), "us"},
		"oltp.commit_p99_us":       {percentile(lt.commit, 99), "us"},
		"refresh.batch_p50_ms":     {percentile(lt.batch, 50), "ms"},
		"refresh.batch_p99_ms":     {percentile(lt.batch, 99), "ms"},

		"govern.queued_ratio":          {ratio(loaded["ddgms_govern_wait_seconds_count"], admitted), "ratio"},
		"govern.shed_ratio":            {ratio(shed, admitted+shed), "ratio"},
		"cube.lattice_hit_ratio":       {ratio(loaded[`ddgms_cube_lattice_total{result="hit"}`], lookups), "ratio"},
		"cube.lattice_entries":         {float64(lt.latticeEntries), "count"},
		"exec.rows_scanned_per_query":  {ratio(loaded["ddgms_exec_rows_scanned_total"], reads), "count"},
		"exec.dict_hit_ratio":          {ratio(loaded.where("ddgms_exec_dict_cache_total", `result="hit"`), loaded.family("ddgms_exec_dict_cache_total")), "ratio"},
		"exec.dense_share":             {ratio(loaded.where("ddgms_exec_kernel_invocations_total", `path="dense"`), loaded.family("ddgms_exec_kernel_invocations_total")), "ratio"},
		"exec.merge_share":             {ratio(loaded["ddgms_exec_merge_seconds_sum"], loaded.family("ddgms_http_request_seconds_sum")), "ratio"},
		"storage.column_bytes_per_row": {ratio(built.family("ddgms_storage_column_bytes"), float64(lt.flatRows)), "bytes"},

		"oltp.fsyncs_per_commit":          {ratio(written["ddgms_oltp_wal_fsyncs_total"], commits), "count"},
		"oltp.wal_appends_per_commit":     {ratio(written["ddgms_oltp_wal_appends_total"], commits), "count"},
		"oltp.disk_bytes_per_row":         {lt.diskPerRow, "bytes"},
		"cdc.tx_per_batch":                {ratio(written["ddgms_cdc_transactions_total"], written["ddgms_cdc_batches_total"]), "count"},
		"cdc.cursor_saves_per_tx":         {ratio(written["ddgms_cdc_cursor_saves_total"], written["ddgms_cdc_transactions_total"]), "count"},
		"refresh.batch_mean_ms":           {1000 * ratio(written["ddgms_refresh_batch_seconds_sum"], written["ddgms_refresh_batch_seconds_count"]), "ms"},
		"refresh.tombstoned_per_appended": {ratio(written["ddgms_refresh_rows_tombstoned_total"], written["ddgms_refresh_rows_appended_total"]), "ratio"},
		"refresh.compactions":             {written["ddgms_refresh_compactions_total"], "count"},
		"cube.delta_entries_per_batch":    {ratio(written.family("ddgms_cube_delta_entries_total"), written["ddgms_refresh_batches_total"]), "count"},

		"bench.latency_p95_ms":     {percentile(latency, 95), "ms"},
		"bench.latency_p99_ms":     {percentile(latency, 99), "ms"},
		"bench.late_p95_ms":        {percentile(late, 95), "ms"},
		"bench.trace_overhead_pct": {100 * (median(col(all, func(r readTimes) float64 { return r.http }))/median(col(all, func(r readTimes) float64 { return r.plain })) - 1), "%"},
	}
	// A layer's call may not take longer than its caller's call on the
	// same request: where it usually does, the separate calls are not
	// comparable and the self time means nothing.
	for _, name := range []string{"server.net_p50_us", "server.self_p50_us", "router.hop_p50_us", "mdx.query_p50_us"} {
		if m[name].Value < 0 {
			fmt.Fprintf(os.Stderr, "bench: warning: %s is negative (%.1f)\n", name, m[name].Value)
		}
	}
	return m
}
