package govern

import (
	"context"
	"sync"
	"time"
)

// Admission is a bounded-concurrency semaphore with a bounded FIFO wait
// queue — the front door of the query path. At most MaxConcurrent
// holders run at once; up to QueueDepth more wait in arrival order; any
// request beyond that is shed immediately with ErrQueueFull. A waiter
// gives up when its context ends or after MaxWait, whichever comes
// first (deadline-aware: a request whose own deadline is nearer than
// MaxWait sheds on that deadline, keeping doomed work out of the
// running set).
type Admission struct {
	max     int
	depth   int
	maxWait time.Duration

	mu    sync.Mutex
	inUse int
	queue []*waiter
}

// waiter is one queued request. granted flips under the admission lock
// exactly once — either the releaser hands it the slot (ready is
// closed) or the waiter abandons and is unlinked.
type waiter struct {
	ready   chan struct{}
	granted bool
}

// NewAdmission creates an admission controller. maxConcurrent must be
// >= 1. queueDepth 0 means no waiting: every request beyond the
// concurrency bound sheds immediately. maxWait 0 means waiters are
// bounded only by their context.
func NewAdmission(maxConcurrent, queueDepth int, maxWait time.Duration) *Admission {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &Admission{
		max:     maxConcurrent,
		depth:   queueDepth,
		maxWait: maxWait,
	}
}

// Acquire obtains one admission slot, waiting in FIFO order if the
// running set is full. On success it returns a release function that
// MUST be called exactly once (defer it). On failure the returned
// release is nil and the error is ErrQueueFull, ErrWaitTimeout or the
// context's error.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	if err := ctx.Err(); err != nil {
		metricShed.WithLabelValues("cancelled").Inc()
		return nil, err
	}
	a.mu.Lock()
	if a.inUse < a.max {
		a.inUse++
		running := a.inUse
		a.mu.Unlock()
		metricAdmitted.Inc()
		metricRunning.Set(float64(running))
		return a.releaseOnce(), nil
	}
	if len(a.queue) >= a.depth {
		a.mu.Unlock()
		metricShed.WithLabelValues("queue_full").Inc()
		return nil, ErrQueueFull
	}
	wt := &waiter{ready: make(chan struct{})}
	a.queue = append(a.queue, wt)
	metricQueued.Set(float64(len(a.queue)))
	a.mu.Unlock()

	start := time.Now()
	var timeout <-chan time.Time
	if a.maxWait > 0 {
		timer := time.NewTimer(a.maxWait)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case <-wt.ready:
		metricWaitSeconds.ObserveSince(start)
		metricAdmitted.Inc()
		return a.releaseOnce(), nil
	case <-ctx.Done():
		err = ctx.Err()
		if !a.abandon(wt) {
			// Granted in the race window: hand the slot straight back.
			a.release()
		}
		metricShed.WithLabelValues("cancelled").Inc()
		return nil, err
	case <-timeout:
		if !a.abandon(wt) {
			a.release()
		}
		metricShed.WithLabelValues("wait_timeout").Inc()
		return nil, ErrWaitTimeout
	}
}

// releaseOnce wraps release so a buggy double call cannot corrupt the
// running count.
func (a *Admission) releaseOnce() func() {
	done := make(chan struct{}, 1)
	done <- struct{}{}
	return func() {
		select {
		case <-done:
			a.release()
		default:
		}
	}
}

// release hands the slot to the oldest waiter, or returns it to the
// pool when the queue is empty.
func (a *Admission) release() {
	a.mu.Lock()
	if len(a.queue) > 0 {
		wt := a.queue[0]
		a.queue = a.queue[1:]
		wt.granted = true
		close(wt.ready)
		metricQueued.Set(float64(len(a.queue)))
		a.mu.Unlock()
		return
	}
	a.inUse--
	running := a.inUse
	a.mu.Unlock()
	metricRunning.Set(float64(running))
}

// abandon unlinks a waiter that gave up. It reports whether the waiter
// was still queued; false means the slot was granted concurrently and
// the caller now owns (and must release) it.
func (a *Admission) abandon(wt *waiter) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if wt.granted {
		return false
	}
	for i, q := range a.queue {
		if q == wt {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			metricQueued.Set(float64(len(a.queue)))
			return true
		}
	}
	// Unreachable: an ungranted waiter is always linked.
	return true
}
