// Package faultfs is an injectable file abstraction for crash testing.
// The OLTP write-ahead log performs all file I/O through the FS and File
// interfaces so that tests can deterministically "crash" the store at any
// injection point: every state-changing filesystem operation (write, sync,
// close, create, rename, remove, truncate, directory sync) is numbered in
// execution order, and a Fault wrapper can be armed to fail at exactly the
// N-th such operation — optionally letting a prefix of the failing write
// through, simulating a torn write. After the armed operation fires, every
// subsequent operation fails too, as if the process had died; the files
// written so far are exactly what a reopened store gets to recover from.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// File is the writable handle the WAL writes through.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage.
	Sync() error
	// Close releases the handle. It does not imply Sync.
	Close() error
}

// FS is the filesystem surface the OLTP store needs. Paths are ordinary
// OS paths; implementations must not interpret them beyond passing them
// to the underlying store.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	// Open opens path for reading. Readers seek: a change-feed poll reads
	// only a segment's unread suffix.
	Open(path string) (io.ReadSeekCloser, error)
	// ReadDir lists the file names (not full paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Remove deletes path.
	Remove(path string) error
	// Rename atomically moves oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Truncate cuts the file at path to size bytes.
	Truncate(path string, size int64) error
	// SyncDir flushes directory metadata (created/renamed/removed
	// entries) to stable storage.
	SyncDir(dir string) error
}

// OS is the real filesystem.
type OS struct{}

func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

func (OS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OS) Open(path string) (io.ReadSeekCloser, error) { return os.Open(path) }

func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OS) Remove(path string) error               { return os.Remove(path) }
func (OS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (OS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ErrInjected is the error every operation returns at and after the armed
// crash point. Callers can errors.Is against it to recognise injected
// failures.
var ErrInjected = errors.New("faultfs: injected crash")

// Fault wraps an inner FS and crashes deterministically. Arm it with
// CrashAt(n, frac): the n-th state-changing operation (1-based) fails; if
// that operation is a write, frac of its bytes (rounded down) reach the
// inner file first, simulating a torn write. frac 1 means the write fully
// lands and the crash happens immediately after it. With n == 0 the Fault
// never fires and merely counts operations, which is how a test measures
// the injection-point space of a workload.
type Fault struct {
	inner FS

	mu      sync.Mutex
	ops     int
	crashAt int
	frac    float64
	crashed bool
}

// NewFault wraps inner with an unarmed fault injector (counting mode).
func NewFault(inner FS) *Fault { return &Fault{inner: inner} }

// CrashAt arms the injector: operation number n (1-based) fails, letting
// frac of a failing write's bytes through. It returns the Fault for
// chaining.
func (f *Fault) CrashAt(n int, frac float64) *Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt, f.frac = n, frac
	return f
}

// Ops reports how many state-changing operations have executed.
func (f *Fault) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the armed crash point has fired.
func (f *Fault) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// step advances the operation counter and decides this operation's fate:
// fire=true means this op is the crash point (partial-write fraction
// returned); err non-nil means the injector already crashed earlier.
func (f *Fault) step() (fire bool, frac float64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return false, 0, fmt.Errorf("%w (op after crash)", ErrInjected)
	}
	f.ops++
	if f.crashAt != 0 && f.ops == f.crashAt {
		f.crashed = true
		return true, f.frac, nil
	}
	return false, 0, nil
}

func (f *Fault) MkdirAll(dir string) error {
	fire, _, err := f.step()
	if err != nil {
		return err
	}
	if fire {
		return fmt.Errorf("%w: mkdir %s", ErrInjected, dir)
	}
	return f.inner.MkdirAll(dir)
}

func (f *Fault) Create(path string) (File, error) {
	fire, _, err := f.step()
	if err != nil {
		return nil, err
	}
	if fire {
		return nil, fmt.Errorf("%w: create %s", ErrInjected, path)
	}
	inner, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, path: path}, nil
}

func (f *Fault) OpenAppend(path string) (File, error) {
	fire, _, err := f.step()
	if err != nil {
		return nil, err
	}
	if fire {
		return nil, fmt.Errorf("%w: append-open %s", ErrInjected, path)
	}
	inner, err := f.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, path: path}, nil
}

func (f *Fault) Open(path string) (io.ReadSeekCloser, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil, fmt.Errorf("%w (op after crash)", ErrInjected)
	}
	return f.inner.Open(path)
}

func (f *Fault) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil, fmt.Errorf("%w (op after crash)", ErrInjected)
	}
	return f.inner.ReadDir(dir)
}

func (f *Fault) Remove(path string) error {
	fire, _, err := f.step()
	if err != nil {
		return err
	}
	if fire {
		return fmt.Errorf("%w: remove %s", ErrInjected, path)
	}
	return f.inner.Remove(path)
}

func (f *Fault) Rename(oldpath, newpath string) error {
	fire, _, err := f.step()
	if err != nil {
		return err
	}
	if fire {
		return fmt.Errorf("%w: rename %s", ErrInjected, newpath)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Fault) Truncate(path string, size int64) error {
	fire, _, err := f.step()
	if err != nil {
		return err
	}
	if fire {
		return fmt.Errorf("%w: truncate %s", ErrInjected, path)
	}
	return f.inner.Truncate(path, size)
}

func (f *Fault) SyncDir(dir string) error {
	fire, _, err := f.step()
	if err != nil {
		return err
	}
	if fire {
		return fmt.Errorf("%w: syncdir %s", ErrInjected, dir)
	}
	return f.inner.SyncDir(dir)
}

// faultFile routes writes, syncs and closes through the injector.
type faultFile struct {
	fs    *Fault
	inner File
	path  string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	fire, frac, err := ff.fs.step()
	if err != nil {
		return 0, err
	}
	if fire {
		n := int(float64(len(p)) * frac)
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			// The torn prefix reaches the file; the error still reports
			// zero written so the writer treats the whole call as failed.
			ff.inner.Write(p[:n])
		}
		return 0, fmt.Errorf("%w: write %s (%d of %d bytes landed)", ErrInjected, ff.path, n, len(p))
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	fire, _, err := ff.fs.step()
	if err != nil {
		return err
	}
	if fire {
		return fmt.Errorf("%w: sync %s", ErrInjected, ff.path)
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error {
	fire, _, err := ff.fs.step()
	if err != nil {
		// The process is "dead": still release the real handle so test
		// tempdirs can be cleaned up, but report the crash.
		ff.inner.Close()
		return err
	}
	if fire {
		ff.inner.Close()
		return fmt.Errorf("%w: close %s", ErrInjected, ff.path)
	}
	return ff.inner.Close()
}
