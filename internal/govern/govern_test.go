package govern

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAdmissionImmediate(t *testing.T) {
	a := NewAdmission(2, 0, 0)
	r1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Running(); got != 2 {
		t.Errorf("Running = %d, want 2", got)
	}
	// Queue depth 0: the third request sheds immediately.
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third Acquire err = %v, want ErrQueueFull", err)
	}
	r1()
	r2()
	if got := a.Running(); got != 0 {
		t.Errorf("Running after release = %d, want 0", got)
	}
}

func TestAdmissionFIFO(t *testing.T) {
	a := NewAdmission(1, 4, 0)
	hold, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const waiters = 4
	order := make(chan int, waiters)
	var started sync.WaitGroup
	var done sync.WaitGroup
	for i := 0; i < waiters; i++ {
		started.Add(1)
		done.Add(1)
		i := i
		go func() {
			defer done.Done()
			// Serialise queue entry so arrival order is deterministic.
			rel, err := a.Acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			rel()
		}()
		// Wait for this goroutine to actually join the queue before
		// launching the next, so FIFO order is observable.
		waitFor(t, func() bool { return a.Queued() == i+1 })
		started.Done()
	}
	started.Wait()
	hold()
	done.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("admission order: got waiter %d before waiter %d", got, want)
		}
		want++
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionWaitTimeout(t *testing.T) {
	a := NewAdmission(1, 4, 20*time.Millisecond)
	hold, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("err = %v, want ErrWaitTimeout", err)
	}
	if got := a.Queued(); got != 0 {
		t.Errorf("Queued after timeout = %d, want 0 (waiter unlinked)", got)
	}
}

func TestAdmissionContextCancelReleasesQueueSlot(t *testing.T) {
	a := NewAdmission(1, 1, 0)
	hold, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx)
		errc <- err
	}()
	waitFor(t, func() bool { return a.Queued() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitFor(t, func() bool { return a.Queued() == 0 })
	// The abandoned queue slot is free again: a new waiter fits.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if _, err := a.Acquire(ctx2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued err = %v, want DeadlineExceeded", err)
	}
	hold()
	// And with the holder gone, admission is immediate again.
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel()
}

func TestAdmissionReleaseHandsToWaiter(t *testing.T) {
	a := NewAdmission(1, 1, 0)
	hold, _ := a.Acquire(context.Background())
	got := make(chan struct{})
	go func() {
		rel, err := a.Acquire(context.Background())
		if err != nil {
			t.Errorf("waiter: %v", err)
			close(got)
			return
		}
		close(got)
		rel()
	}()
	waitFor(t, func() bool { return a.Queued() == 1 })
	hold()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never granted after release")
	}
}

func TestAdmissionDoubleReleaseHarmless(t *testing.T) {
	a := NewAdmission(1, 0, 0)
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel()
	rel() // second call must be a no-op
	if got := a.Running(); got != 0 {
		t.Fatalf("Running after double release = %d", got)
	}
}

func TestAdmissionStress(t *testing.T) {
	a := NewAdmission(4, 16, 50*time.Millisecond)
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			rel, err := a.Acquire(ctx)
			if err != nil {
				return // shed under load is fine
			}
			defer rel()
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 4 {
		t.Fatalf("concurrency bound violated: peak %d > 4", p)
	}
	if got := a.Running(); got != 0 {
		t.Fatalf("Running after drain = %d", got)
	}
	if got := a.Queued(); got != 0 {
		t.Fatalf("Queued after drain = %d", got)
	}
}

func TestBudget(t *testing.T) {
	b := NewBudget(100, 10, 0)
	if err := b.AddRows(60); err != nil {
		t.Fatal(err)
	}
	if err := b.AddRows(40); err != nil {
		t.Fatal(err) // exactly at the limit is fine
	}
	err := b.AddRows(1)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Dim != "rows" || be.Limit != 100 {
		t.Fatalf("budget error = %+v", err)
	}
	if err := b.AddCells(11); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("cells err = %v", err)
	}
	// Unlimited dimension never trips.
	if err := b.AddBytes(1 << 40); err != nil {
		t.Fatal(err)
	}
	// Nil budget charges nothing.
	var nb *Budget
	if err := nb.AddRows(1 << 40); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetContext(t *testing.T) {
	if b := BudgetFrom(context.Background()); b != nil {
		t.Fatal("empty context carried a budget")
	}
	b := NewBudget(1, 0, 0)
	ctx := WithBudget(context.Background(), b)
	if got := BudgetFrom(ctx); got != b {
		t.Fatal("budget did not round-trip through the context")
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{
		Name:             "test",
		FailureThreshold: 3,
		OpenFor:          time.Second,
		HalfOpenProbes:   2,
		now:              func() time.Time { return now },
	})
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatal(err)
		}
		b.RecordFailure()
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 2 failures = %v", got)
	}
	// A success resets the consecutive count.
	b.RecordSuccess()
	b.RecordFailure()
	b.RecordFailure()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after reset+2 failures = %v", got)
	}
	b.RecordFailure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open Allow err = %v", err)
	}
	// Cooldown elapses -> half-open, which admits exactly the probes it
	// still needs.
	now = now.Add(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("first probe: %v", err)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("third concurrent probe allowed: %v", err)
	}
	b.RecordSuccess()
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after 1/2 probes = %v", got)
	}
	b.RecordSuccess()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 2/2 probes = %v, want closed", got)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 1,
		OpenFor:          time.Second,
		now:              func() time.Time { return now },
	})
	b.RecordFailure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v", got)
	}
	now = now.Add(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.RecordFailure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after probe failure = %v, want open again", got)
	}
	// And the cooldown restarted: still fast-failing.
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow right after reopen: %v", err)
	}
}

func TestBreakerHealthFastFail(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	b := NewBreaker(BreakerConfig{
		Health: func() error {
			if healthy.Load() {
				return nil
			}
			return fmt.Errorf("wal poisoned")
		},
	})
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	healthy.Store(false)
	err := b.Allow()
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("unhealthy Allow err = %v", err)
	}
	// Health fast-fail does not move the state machine: recovery is
	// immediate once the dependency heals.
	healthy.Store(true)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v", got)
	}
}

// Running reports the current number of admitted holders.
func (a *Admission) Running() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse
}

// Queued reports the current wait-queue length.
func (a *Admission) Queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}
