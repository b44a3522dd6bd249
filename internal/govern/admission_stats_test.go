package govern

import (
	"context"
	"testing"
	"time"
)

// dispositions is a reading of the admission metric counters. No govern
// test runs in parallel, so the difference of two readings taken around
// a test's Acquire calls counts exactly that test's dispositions.
type dispositions struct {
	admitted, queueFull, waitTimeout, cancelled uint64
}

func readDispositions() dispositions {
	return dispositions{
		admitted:    metricAdmitted.Value(),
		queueFull:   metricShed.WithLabelValues("queue_full").Value(),
		waitTimeout: metricShed.WithLabelValues("wait_timeout").Value(),
		cancelled:   metricShed.WithLabelValues("cancelled").Value(),
	}
}

func (d dispositions) since(before dispositions) dispositions {
	return dispositions{
		admitted:    d.admitted - before.admitted,
		queueFull:   d.queueFull - before.queueFull,
		waitTimeout: d.waitTimeout - before.waitTimeout,
		cancelled:   d.cancelled - before.cancelled,
	}
}

// The metrics must mirror the dispositions exactly: every Acquire lands
// in precisely one counter.
func TestAdmissionStats(t *testing.T) {
	before := readDispositions()
	a := NewAdmission(1, 0, 0)

	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Slot is held and the queue is zero-depth: the next caller sheds
	// immediately as queue-full.
	if _, err := a.Acquire(context.Background()); err != ErrQueueFull {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	release()

	// Slot free again: this one admits.
	release, err = a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release()

	st := readDispositions().since(before)
	if st != (dispositions{admitted: 2, queueFull: 1}) {
		t.Fatalf("dispositions = %+v, want 2 admitted and 1 queue_full", st)
	}
}

func TestAdmissionStatsWaitTimeout(t *testing.T) {
	before := readDispositions()
	a := NewAdmission(1, 4, 20*time.Millisecond)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire(context.Background()); err != ErrWaitTimeout {
		t.Fatalf("want ErrWaitTimeout, got %v", err)
	}
	release()

	st := readDispositions().since(before)
	if st != (dispositions{admitted: 1, waitTimeout: 1}) {
		t.Fatalf("dispositions = %+v, want 1 admitted and 1 wait_timeout", st)
	}
}

func TestAdmissionStatsCancelled(t *testing.T) {
	before := readDispositions()
	a := NewAdmission(1, 4, 0)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter enqueue
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	release()

	// A client that gives up while queued counts as cancelled, not as a
	// capacity shed.
	st := readDispositions().since(before)
	if st != (dispositions{admitted: 1, cancelled: 1}) {
		t.Fatalf("dispositions = %+v, want 1 admitted and 1 cancelled", st)
	}
}
