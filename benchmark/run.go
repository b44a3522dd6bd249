package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/ddgms/ddgms/internal/experiments"
	"github.com/ddgms/ddgms/internal/oltp"
)

// run measures one workload and then checks that nothing it started is
// still running.
func run(o options) (*result, error) {
	baseline := runtime.NumGoroutine()
	res, err := measure(o)
	if err != nil {
		return nil, err
	}
	if n := settledGoroutines(baseline + 2); n > baseline+2 {
		fmt.Fprintf(os.Stderr, "bench: %d goroutines at exit, %d before set-up\n", n, baseline)
		res.Correct = false
	}
	return res, nil
}

// settledGoroutines waits briefly for the count to fall to want.
func settledGoroutines(want int) int {
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if n := runtime.NumGoroutine(); n <= want || time.Now().After(deadline) {
			return n
		}
	}
}

func measure(o options) (res *result, err error) {
	g := newGenerator(o.seed)
	w := o.workload
	procs := runtime.GOMAXPROCS(0)
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d patients=%d GOMAXPROCS=%d\n", w.name, o.seed, o.patients, procs)

	var lt *layerTrace
	if o.trace {
		if lt, err = newLayerTrace(o.patients); err != nil {
			return nil, err
		}
	}

	// Set-up. An untraced run sets up several times and keeps the last
	// platform, so that setup_s is a median and not a single draw.
	rounds := setupRounds
	if o.trace {
		rounds = 1
	}
	var e *env
	var st stages
	var setups []float64
	for i := 0; i < rounds; i++ {
		if e != nil {
			if err := e.stop(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		if e, st, err = start(o.tmp, o.patients, 4*procs); err != nil {
			return nil, err
		}
		setups = append(setups, st.total().Seconds())
	}
	defer func() { err = errors.Join(err, e.stop()) }()

	if err := verify(e); err != nil {
		return nil, err
	}
	t := &tally{}
	rd := &reader{e: e, t: t}
	if rd.expect, err = warmUp(e, w); err != nil {
		return nil, err
	}
	if w.txRate > 0 {
		rd.expect = nil
	}
	before, _ := e.p.Freshness()

	seconds := o.seconds
	if o.trace {
		seconds /= 2 // the other half is the layer-by-layer replay
	}
	open := time.Duration(openShare * float64(seconds))
	closed := seconds - open

	// Everything the timed phases send is drawn before they start.
	var due1, due2 []time.Duration
	var reqs1, reqs2 []*request
	if w.readRate > 0 {
		due1, due2 = g.poisson(w.readRate, open), g.poisson(w.readRate, closed)
		reqs1 = g.pick(w.mix, len(due1))
		reqs2 = g.pick(w.mix, max(len(due2), 4096))
	}
	wr := &writer{e: e, t: t}
	var txDue []time.Duration
	if w.txRate > 0 {
		txDue = g.even(w.txRate, open)
		wr.rows = g.visits(e.raw, rowPool)
	}
	var probes []*request
	var probeRows []oltp.Row
	if lt != nil {
		sql, flat := scanPool()
		for _, pool := range [][]request{mdxPool(additiveMeasures...), sql, flat} {
			probes = append(probes, g.pick([]weighted{{1, pool}}, minProbes)...)
		}
		probeRows = g.visits(e.raw, replayRows(w))
		if err := lt.mark(); err != nil {
			return nil, err
		}
	}
	e.raw = nil // 150 MB the server would not hold

	var latency, late, rates []float64
	switch {
	case w.txRate == 0: // open-loop reads, then closed-loop reads
		latency, late = rd.openLoop(reqs1, due1, 2*procs)
		rates = sliceRates(rd.closedLoop(reqs2, 4*procs, closed), closed, rateSlice)
	case w.readRate == 0: // open-loop commit → visible, then bursts
		wr.openLoop(txDue)
		latency, late = wr.visible, wr.late
		rates = wr.bursts(burstRows, closed)
	default: // open-loop reads beside an open-loop, then a closed-loop, writer
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); wr.openLoop(txDue) }()
		latency, late = rd.openLoop(reqs1, due1, 2*procs)
		wg.Wait()
		n := len(wr.visible)
		wg.Add(1)
		go func() { defer wg.Done(); wr.closedLoop(closed) }()
		rd.openLoop(reqs2[:len(due2)], due2, 2*procs)
		wg.Wait()
		for _, v := range wr.visible[n:] {
			rates = append(rates, 1000/v) // one writer: visible commits/s is 1 / cycle time
		}
	}
	if len(latency) == 0 || len(rates) == 0 {
		return nil, fmt.Errorf("no samples: %d latencies, %d rates", len(latency), len(rates))
	}

	res = &result{}
	if lt != nil {
		if err := lt.mark(); err != nil {
			return nil, err
		}
		wr.rows = probeRows
		if err := lt.replay(e, reqs1, probes, wr, time.Now().Add(o.seconds-seconds)); err != nil {
			return nil, err
		}
		if err := lt.write(o.out, w.name); err != nil {
			return nil, err
		}
		res.Metrics = lt.metrics(st, latency, late)
	} else {
		res.Metrics = map[string]metric{
			"setup_s":          {median(setups), "s"},
			"latency_p50_ms":   {percentile(latency, 50), "ms"},
			"latency_mean_ms":  {trimmedMean(latency, 0.01), "ms"},
			"throughput_per_s": {median(rates), "1/s"},
			"peak_rss_mb":      {peakRSSMB(), "MB"},
		}
	}

	// Every committed attendance must have reached the warehouse.
	if err := e.awaitVisible(time.Now().Add(10 * time.Second)); err != nil {
		t.fail("%v", err)
	}
	after, _ := e.p.Freshness()
	if got, want := after.LiveRows-before.LiveRows, wr.committed; got != want {
		t.fail("warehouse gained %d live rows for %d committed attendances", got, want)
	}
	fmt.Fprintf(os.Stderr, "bench: %d latency samples (p50 %.3f ms, p95 %.3f ms, generator late p95 %.3f ms), %d rate samples (median %.0f/s), %d commits\n",
		len(latency), percentile(latency, 50), percentile(latency, 95), percentile(late, 95), len(rates), median(rates), wr.committed)

	res.Attempted, res.Failed = t.attempted.Load(), t.failed.Load()
	res.Correct = res.Failed == 0
	return res, nil
}

// verify runs the set-up checks: the paper's figure shapes hold at this
// scale, and the cube and the flat scan count the same patients.
func verify(e *env) error {
	fig5, err := experiments.Fig5(io.Discard, e.p)
	if err == nil {
		err = experiments.CheckFig5Shape(fig5)
	}
	if err != nil {
		return fmt.Errorf("fig 5: %w", err)
	}
	fig6, err := experiments.Fig6(io.Discard, e.p)
	if err == nil {
		err = experiments.CheckFig6Shape(fig6)
	}
	if err != nil {
		return fmt.Errorf("fig 6: %w", err)
	}

	var viaCube struct{ Cells [][]float64 }
	var viaScan struct{ Rows [][]float64 }
	for _, q := range []struct {
		req request
		doc any
	}{
		{request{path: "/query", body: jsonBody(map[string]any{"mdx": "SELECT {[Measures].[PatientCount]} ON COLUMNS FROM [MedicalMeasures]"})}, &viaCube},
		{request{path: "/sql", body: jsonBody(map[string]any{"sql": "SELECT distinct(PatientID) AS n FROM visits"})}, &viaScan},
	} {
		var buf bytes.Buffer
		if status, err := e.post(e.url, &q.req, &buf); err != nil || status != 200 {
			return fmt.Errorf("%s: status %d: %v: %s", q.req.path, status, err, buf.Bytes())
		}
		if err := json.Unmarshal(buf.Bytes(), q.doc); err != nil {
			return fmt.Errorf("%s: %w", q.req.path, err)
		}
	}
	if len(viaCube.Cells) != 1 || len(viaScan.Rows) != 1 || viaCube.Cells[0][0] != viaScan.Rows[0][0] || viaScan.Rows[0][0] == 0 {
		return fmt.Errorf("cube counts %v patients, flat scan %v", viaCube.Cells, viaScan.Rows)
	}
	return nil
}

// warmUp sends every request of the workload's pools once, so that the
// lattice, the dictionaries and the bitmaps are as a long-running server
// has them, and keeps each answer for the byte comparison.
func warmUp(e *env, w workload) (map[*request][]byte, error) {
	expect := map[*request][]byte{}
	var buf bytes.Buffer
	for _, m := range w.mix {
		for i := range m.pool {
			req := &m.pool[i]
			if status, err := e.post(e.url, req, &buf); err != nil || status != 200 {
				return nil, fmt.Errorf("warm-up %s %s: status %d: %v: %s", req.path, req.body, status, err, buf.Bytes())
			}
			expect[req] = bytes.Clone(buf.Bytes())
		}
	}
	return expect, nil
}
