package oltp

import (
	"errors"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/ddgms/ddgms/internal/value"
)

// Failure-injection tests: WAL corruption in various positions, and
// conflict-retry behaviour under contention.

func populate(t *testing.T, dir string, n int) {
	t.Helper()
	s, err := Open(dir, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tx := s.Begin()
		if _, err := tx.Insert(row(int64(i), float64(i), "F")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultWALCorruptionMidFileDetected(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 20)
	path := tailSegmentPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle: the record's checksum no longer matches,
	// and recovery must refuse to open rather than silently replay a
	// corrupted prefix-or-garbage state. The error names the offset so an
	// operator can inspect the log.
	corrupted := append([]byte(nil), data...)
	corrupted[len(corrupted)/2] ^= 0xFF
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, testSchema())
	if err == nil {
		s.Close()
		t.Fatal("Open succeeded on a mid-log corrupted WAL")
	}
	if !errors.Is(err, errCorrupt) {
		t.Errorf("err = %v, want errCorrupt", err)
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Errorf("error does not name the offset: %v", err)
	}
}

func TestFaultWALCorruptHeaderDetected(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 3)
	path := tailSegmentPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xFF // break the segment magic
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, testSchema()); err == nil {
		s.Close()
		t.Fatal("Open succeeded with a corrupted segment header")
	} else if !errors.Is(err, errCorrupt) {
		t.Errorf("err = %v, want errCorrupt", err)
	}
}

func TestFaultWALTruncatedToEveryPrefix(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 5)
	path := tailSegmentPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash truncates the log to an arbitrary prefix. Recovery must be
	// total over prefixes: every cut opens cleanly with a row count
	// between 0 and 5 — a torn tail is discarded, never fatal.
	for cut := 0; cut <= len(data); cut++ {
		sub := t.TempDir()
		s, err := Open(sub, testSchema())
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		if err := os.WriteFile(tailSegmentPath(t, sub), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err = Open(sub, testSchema())
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if s.Len() > 5 {
			t.Errorf("cut=%d: %d rows", cut, s.Len())
		}
		// Still writable after torn-tail recovery.
		tx := s.Begin()
		if _, err := tx.Insert(row(99, 1, "M")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("cut=%d: commit after recovery: %v", cut, err)
		}
		s.Close()
	}
}

// TestConflictRetryConverges exercises the documented retry pattern: many
// goroutines increment the same logical counter; with retries every
// increment must eventually land.
func TestConflictRetryConverges(t *testing.T) {
	s := mustOpen(t, "")
	setup := s.Begin()
	id, _ := setup.Insert(row(1, 0, "F"))
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	const workers, each = 6, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				for {
					tx := s.Begin()
					r, ok := tx.Get(id)
					if !ok {
						t.Error("row vanished")
						return
					}
					updated := Row{r[0], value.Float(r[1].Float() + 1), r[2]}
					if err := tx.Update(id, updated); err != nil {
						t.Errorf("update: %v", err)
						return
					}
					err := tx.Commit()
					if err == nil {
						break
					}
					if !errors.Is(err, ErrConflict) {
						t.Errorf("commit: %v", err)
						return
					}
					// Conflict: retry from scratch.
				}
			}
		}()
	}
	wg.Wait()
	check := s.Begin()
	defer check.Rollback()
	r, _ := check.Get(id)
	if got := r[1].Float(); got != workers*each {
		t.Errorf("counter = %g, want %d", got, workers*each)
	}
}
