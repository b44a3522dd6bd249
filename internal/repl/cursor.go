package repl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"github.com/ddgms/ddgms/internal/faultfs"
	"github.com/ddgms/ddgms/internal/oltp"
)

// The follower's replication cursor is the primary's WAL position it
// has durably applied up to. It lives in its own file — it is a cursor
// into the *primary's* log, distinct from the in-memory refresh position
// in the follower's own log — with a magic+uvarint+CRC32-C layout and
// the tmp+sync+rename+dirsync save discipline of WAL checkpoints, so a
// crash mid-save never corrupts it.
//
// Version 2 ("DDGRCUR2") stores the replication epoch alongside the
// cursor in the SAME record: a cursor is only meaningful within the
// epoch whose timeline it indexes, so persisting them separately would
// open a crash window where a new epoch pairs with a stale-timeline
// cursor. V1 files (pre-fencing) are treated as absent — the follower
// takes a one-time snapshot bootstrap rather than trusting a cursor of
// unknown epoch.
const (
	cursorMagic   = "DDGRCUR2"
	cursorMagicV1 = "DDGRCUR1"
	cursorFile    = "repl.cursor"
)

// writeDurable writes data to dir/name with tmp+sync+rename+dirsync.
func writeDurable(fs faultfs.FS, dir, name string, data []byte) error {
	final := filepath.Join(dir, name)
	tmpPath := final + ".tmp"
	f, err := fs.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("repl: creating %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("repl: writing %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("repl: syncing %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("repl: closing %s: %w", name, err)
	}
	if err := fs.Rename(tmpPath, final); err != nil {
		return fmt.Errorf("repl: publishing %s: %w", name, err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("repl: syncing dir for %s: %w", name, err)
	}
	return nil
}

// saveCursor persists (epoch, cursor) durably under dir as one record.
func saveCursor(fs faultfs.FS, dir string, epoch uint64, c oltp.WALCursor) error {
	var buf bytes.Buffer
	buf.WriteString(cursorMagic)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], epoch)
	buf.Write(tmp[:n])
	n = binary.PutUvarint(tmp[:], c.Seq)
	buf.Write(tmp[:n])
	n = binary.PutUvarint(tmp[:], uint64(c.Off))
	buf.Write(tmp[:n])
	sum := crc32.Checksum(buf.Bytes()[len(cursorMagic):], castagnoli)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sum)
	buf.Write(crc[:])
	if err := writeDurable(fs, dir, cursorFile, buf.Bytes()); err != nil {
		return err
	}
	metricCursorSaves.Inc()
	return nil
}

// loadCursor reads the persisted (epoch, cursor); ok=false when none
// exists, the file is torn (an interrupted first save), or it is a v1
// record with no epoch — the follower then bootstraps from a snapshot
// instead of resuming from garbage.
func loadCursor(fs faultfs.FS, dir string) (epoch uint64, cur oltp.WALCursor, ok bool, err error) {
	f, err := fs.Open(filepath.Join(dir, cursorFile))
	if err != nil {
		return 0, oltp.WALCursor{}, false, nil
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return 0, oltp.WALCursor{}, false, fmt.Errorf("repl: reading cursor: %w", err)
	}
	if len(data) >= len(cursorMagicV1) && string(data[:len(cursorMagicV1)]) == cursorMagicV1 {
		return 0, oltp.WALCursor{}, false, nil // pre-epoch record: bootstrap
	}
	if len(data) < len(cursorMagic)+4 || string(data[:len(cursorMagic)]) != cursorMagic {
		return 0, oltp.WALCursor{}, false, nil // torn first save: bootstrap
	}
	body := data[len(cursorMagic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != want {
		return 0, oltp.WALCursor{}, false, fmt.Errorf("repl: cursor checksum mismatch")
	}
	br := bytes.NewReader(body)
	epoch, err = binary.ReadUvarint(br)
	if err != nil {
		return 0, oltp.WALCursor{}, false, fmt.Errorf("repl: bad cursor payload")
	}
	seq, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, oltp.WALCursor{}, false, fmt.Errorf("repl: bad cursor payload")
	}
	off, err := binary.ReadUvarint(br)
	if err != nil || br.Len() != 0 {
		return 0, oltp.WALCursor{}, false, fmt.Errorf("repl: bad cursor payload")
	}
	return epoch, oltp.WALCursor{Seq: seq, Off: int64(off)}, true, nil
}
