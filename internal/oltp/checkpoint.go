package oltp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"github.com/ddgms/ddgms/internal/faultfs"
)

// Checkpoint file layout: the 8-byte magic, then the same length+CRC32-C
// framing as WAL segments. The first frame is a meta record (nextID,
// nextTx, row count); each following frame is one committed row (id, nval,
// values). The file number is the first WAL segment sequence to replay on
// top of the snapshot. Checkpoints are written to <name>.tmp, synced and
// renamed into place, so recovery only ever sees complete files; a frame
// error inside one is therefore bit rot and fails loudly with the offset.

// writeCheckpoint snapshots current committed state as checkpoint seq,
// returning the checkpoint's size on disk. The caller must guarantee the
// state is quiescent (holds s.mu or is in recovery before any writer
// exists).
func (s *Store) writeCheckpoint(fs faultfs.FS, dir string, seq uint64) (int64, error) {
	final := filepath.Join(dir, ckptName(seq))
	tmp := final + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("oltp: creating checkpoint: %w", err)
	}
	var written int64
	bw := bufio.NewWriter(f)
	var scratch bytes.Buffer

	frame := func(payload []byte) error {
		n, err := writeFrame(bw, payload)
		written += n
		return err
	}

	write := func() error {
		if _, err := bw.WriteString(ckptMagic); err != nil {
			return err
		}
		written += int64(len(ckptMagic))
		scratch.Reset()
		writeUvarint(&scratch, uint64(s.nextID))
		writeUvarint(&scratch, s.nextTx)
		writeUvarint(&scratch, uint64(len(s.rows)))
		if err := frame(scratch.Bytes()); err != nil {
			return err
		}
		ids := make([]RowID, 0, len(s.rows))
		for id := range s.rows {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			scratch.Reset()
			writeUvarint(&scratch, uint64(id))
			row := s.rows[id].row
			writeUvarint(&scratch, uint64(len(row)))
			for _, v := range row {
				if err := writeValue(&scratch, v); err != nil {
					return err
				}
			}
			if err := frame(scratch.Bytes()); err != nil {
				return err
			}
		}
		// One optional trailing frame: the meta applier's state blob, so
		// meta records swept with the segments below this checkpoint are
		// not lost. Readers without an applier skip it.
		if s.opts.Meta != nil {
			if err := frame(s.opts.Meta.Snapshot()); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}

	if err := write(); err != nil {
		f.Close()
		return 0, fmt.Errorf("oltp: writing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("oltp: closing checkpoint: %w", err)
	}
	if err := fs.Rename(tmp, final); err != nil {
		return 0, fmt.Errorf("oltp: publishing checkpoint: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return 0, fmt.Errorf("oltp: syncing store dir: %w", err)
	}
	return written, nil
}

// loadCheckpoint restores committed state from checkpoint seq. Rows are
// installed directly; secondary indexes are created later (CreateIndex
// scans current rows), so none exist yet at recovery time.
func (s *Store) loadCheckpoint(fs faultfs.FS, dir string, seq uint64) error {
	name := ckptName(seq)
	f, err := fs.Open(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("oltp: opening checkpoint: %w", err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("oltp: reading checkpoint %s: %w", name, err)
	}
	if len(data) < len(ckptMagic) || string(data[:len(ckptMagic)]) != ckptMagic {
		return fmt.Errorf("%w: checkpoint %s: bad magic at offset 0", errCorrupt, name)
	}

	off := len(ckptMagic)
	// The file was published whole, so a torn frame is rot here too.
	nextFrame := func() ([]byte, error) {
		payload, next, fault := readFrame(data, off)
		if fault != nil {
			return nil, fmt.Errorf("%w: checkpoint %s: %s at offset %d", errCorrupt, name, fault.what, off)
		}
		off = next
		return payload, nil
	}

	meta, err := nextFrame()
	if err != nil {
		return err
	}
	mr := bytes.NewReader(meta)
	nextID, err := binary.ReadUvarint(mr)
	if err != nil {
		return fmt.Errorf("%w: checkpoint %s: bad meta record", errCorrupt, name)
	}
	nextTx, err := binary.ReadUvarint(mr)
	if err != nil {
		return fmt.Errorf("%w: checkpoint %s: bad meta record", errCorrupt, name)
	}
	nRows, err := binary.ReadUvarint(mr)
	if err != nil {
		return fmt.Errorf("%w: checkpoint %s: bad meta record", errCorrupt, name)
	}

	for i := uint64(0); i < nRows; i++ {
		rowOff := off
		payload, err := nextFrame()
		if err != nil {
			return err
		}
		br := bytes.NewReader(payload)
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: checkpoint %s: bad row record at offset %d", errCorrupt, name, rowOff)
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: checkpoint %s: bad row record at offset %d", errCorrupt, name, rowOff)
		}
		row := make(Row, n)
		for j := range row {
			v, err := readValue(br)
			if err != nil {
				return fmt.Errorf("%w: checkpoint %s: bad row value at offset %d", errCorrupt, name, rowOff)
			}
			row[j] = v
		}
		s.rows[RowID(id)] = versionedRow{row: row, version: 1}
	}
	if off < len(data) {
		// Trailing meta frame (absent in checkpoints written before meta
		// records existed, or by stores without an applier).
		blob, err := nextFrame()
		if err != nil {
			return err
		}
		if s.opts.Meta != nil && len(blob) > 0 {
			s.opts.Meta.Apply(blob)
		}
	}
	if off != len(data) {
		return fmt.Errorf("%w: checkpoint %s: %d trailing bytes at offset %d", errCorrupt, name, len(data)-off, off)
	}
	s.nextID = RowID(nextID)
	s.nextTx = nextTx
	return nil
}

// Checkpoint snapshots committed state to disk and truncates the log: the
// current segment is sealed, a new segment is opened, the snapshot is
// published atomically, and all segments and checkpoints the snapshot
// subsumes are deleted. Commits happening after the call see only the new
// segment. Checkpoint is also triggered automatically once the log grows
// past Options.CheckpointBytes.
func (s *Store) Checkpoint() error {
	if s.dir == "" {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.walMu.Lock()
	defer s.walMu.Unlock()
	return s.checkpointLocked()
}

// checkpointLocked needs s.walMu and at least a read hold on s.mu.
func (s *Store) checkpointLocked() error {
	if err := s.walUsableLocked(); err != nil {
		return err
	}
	start := time.Now()
	old := s.wal
	if err := old.close(); err != nil {
		return s.failWalLocked(fmt.Errorf("oltp: sealing WAL segment: %w", err))
	}
	next, err := createSegment(s.fs, s.dir, old.seq+1)
	if err != nil {
		return s.failWalLocked(err)
	}
	s.wal = next
	ckptBytes, err := s.writeCheckpoint(s.fs, s.dir, next.seq)
	if err != nil {
		return s.failWalLocked(err)
	}
	// Best-effort cleanup: everything below the new checkpoint is garbage;
	// a crash mid-sweep just leaves files the next recovery removes. A
	// registered WAL subscriber (RetainWALFrom) pins its unconsumed
	// segments so a caught-up tailer survives checkpoints without a gap;
	// retention is in-memory only, so a restart may still force a resync.
	lay, err := scanWalDir(s.fs, s.dir)
	if err != nil {
		return s.failWalLocked(err)
	}
	keep := next.seq
	if floor := s.retainFloorLocked(); floor > 0 && floor < keep {
		keep = floor
	}
	for _, seq := range lay.segs {
		if seq < keep {
			if err := s.fs.Remove(filepath.Join(s.dir, segName(seq))); err != nil {
				return s.failWalLocked(err)
			}
		}
	}
	for _, c := range lay.ckpts {
		if c < next.seq {
			if err := s.fs.Remove(filepath.Join(s.dir, ckptName(c))); err != nil {
				return s.failWalLocked(err)
			}
		}
	}
	s.walSinceCkpt = 0
	s.ckptCount++
	s.ckptBytes = ckptBytes
	metricCheckpoints.Inc()
	metricCheckpointBytes.Set(float64(ckptBytes))
	metricCheckpointSeconds.ObserveSince(start)
	if s.opts.Log != nil {
		s.opts.Log.Printf("oltp: checkpoint %d written: %d rows, %d bytes in %s",
			next.seq, len(s.rows), ckptBytes, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
