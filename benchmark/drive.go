package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddgms/ddgms/internal/oltp"
)

// tally counts operations for the run's attempted/failed line. A read
// fails on a transport error, a status other than 200 (sheds included)
// or a body that differs from the warm-up answer; a write fails when the
// commit errors or never becomes visible.
type tally struct {
	attempted, failed atomic.Int64
	complained        atomic.Bool
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	if !t.complained.Swap(true) { // the first failure explains itself, the rest are counted
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	}
}

// arrive blocks until the scheduled instant and returns the instant the
// request counts as having arrived. time.Sleep overshoots by up to a
// millisecond when every P is idle (the runtime's poller waits in whole
// milliseconds); that is the generator's doing and shifts the arrival. A
// schedule that has already passed, because every worker was waiting on
// the system, is not: then the request arrived when it was due.
func arrive(due time.Time) time.Time {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
		return time.Now()
	}
	return due
}

// reader is the shared state of the read drivers.
type reader struct {
	e *env
	t *tally
	// expect maps a request to the body it must return; nil while writes
	// are changing the answers.
	expect map[*request][]byte
}

func (r *reader) do(req *request, buf *bytes.Buffer) {
	r.t.attempted.Add(1)
	status, err := r.e.post(r.e.url, req, buf)
	switch {
	case err != nil:
		r.t.fail("%s: %v", req.path, err)
	case status != 200:
		r.t.fail("%s answered %d: %s", req.path, status, buf.Bytes())
	case r.expect != nil && !bytes.Equal(buf.Bytes(), r.expect[req]):
		r.t.fail("%s answered differently from warm-up for %s", req.path, req.body)
	}
}

// openLoop sends reqs[i] at due[i] after the call, from a fixed set of
// workers that each take the next unsent arrival. Latency runs from the
// request's arrival (see arrive), so time spent waiting for a free worker
// behind a stalled server is counted; lateness is how long after its due
// instant a request left.
func (r *reader) openLoop(reqs []*request, due []time.Duration, workers int) (latency, late []float64) {
	latency, late = make([]float64, len(reqs)), make([]float64, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				at := start.Add(due[i])
				arrived := arrive(at)
				late[i] = ms(time.Since(at))
				r.do(reqs[i], &buf)
				latency[i] = ms(time.Since(arrived))
			}
		}()
	}
	wg.Wait()
	return latency, late
}

// closedLoop keeps `clients` requests in flight for dur, each client
// sending its next request when the previous one returns, and reports
// when each request completed.
func (r *reader) closedLoop(reqs []*request, clients int, dur time.Duration) []time.Duration {
	done := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := c; time.Since(start) < dur; i += clients {
				r.do(reqs[i%len(reqs)], &buf)
				done[c] = append(done[c], time.Since(start))
			}
		}(c)
	}
	wg.Wait()
	var all []time.Duration
	for _, d := range done {
		all = append(all, d...)
	}
	return all
}

// writer commits pre-materialised attendances, one per transaction, in
// order, starting over when it has used them all (a repeated row is one
// more attendance of the same patient). It is used by one goroutine at a
// time.
type writer struct {
	e         *env
	t         *tally
	rows      []oltp.Row
	used      int
	committed int

	commit  []float64 // Commit() wall time, ms
	visible []float64 // arrival → visible in the warehouse, ms
	late    []float64 // due → start of commit, ms
}

// one commits the next row, due at the given instant, and waits until a
// query would see it.
func (w *writer) one(due time.Time) {
	w.t.attempted.Add(1)
	arrived := arrive(due)
	start := time.Now()
	err := w.e.commit(w.next())
	committed := time.Now()
	if err == nil {
		w.committed++
		err = w.e.awaitVisible(committed.Add(10 * time.Second))
	}
	if err != nil {
		w.t.fail("commit: %v", err)
		return
	}
	w.late = append(w.late, ms(start.Sub(due)))
	w.commit = append(w.commit, ms(committed.Sub(start)))
	w.visible = append(w.visible, ms(time.Since(arrived)))
}

func (w *writer) next() oltp.Row {
	w.used++
	return w.rows[(w.used-1)%len(w.rows)]
}

// openLoop commits one row at each due offset.
func (w *writer) openLoop(due []time.Duration) {
	start := time.Now()
	for _, d := range due {
		w.one(start.Add(d))
	}
}

// closedLoop commits, waits for visibility and repeats until dur is over.
func (w *writer) closedLoop(dur time.Duration) {
	for start := time.Now(); time.Since(start) < dur; {
		w.one(time.Now())
	}
}

// bursts commits n rows back to back, waits for the warehouse to catch
// up, and repeats until dur is over; it returns each burst's rows/s.
func (w *writer) bursts(n int, dur time.Duration) []float64 {
	var rates []float64
	for start := time.Now(); time.Since(start) < dur; {
		t0 := time.Now()
		w.t.attempted.Add(int64(n))
		for i := 0; i < n; i++ {
			if err := w.e.commit(w.next()); err != nil {
				w.t.fail("commit: %v", err)
			} else {
				w.committed++
			}
		}
		if err := w.e.awaitVisible(time.Now().Add(30 * time.Second)); err != nil {
			w.t.fail("burst: %v", err)
			continue
		}
		rates = append(rates, float64(n)/time.Since(t0).Seconds())
	}
	return rates
}
