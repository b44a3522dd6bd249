package oltp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/ddgms/ddgms/internal/faultfs"
	"github.com/ddgms/ddgms/internal/value"
)

// walOp tags a WAL record.
type walOp uint8

const (
	opInsert walOp = iota + 1
	opUpdate
	opDelete
	opCommit
	// opMeta is an opaque side-channel record (see meta.go). It is
	// encoded exactly like an insert: row id (always 0) plus a
	// single-string row holding the payload.
	opMeta
)

// walRecord is one log entry. Data records carry a row payload; the commit
// marker carries only the transaction id.
type walRecord struct {
	tx  uint64
	op  walOp
	id  RowID
	row Row
}

// errCorrupt distinguishes detected log corruption from I/O failures.
var errCorrupt = errors.New("oltp: WAL corrupt")

func segName(seq uint64) string  { return fmt.Sprintf("wal-%08d.seg", seq) }
func ckptName(seq uint64) string { return fmt.Sprintf("checkpoint-%08d.ckpt", seq) }

// parseSeq extracts the sequence number from a segment or checkpoint file
// name, returning ok=false for anything else.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// walWriter appends framed records to the current segment.
type walWriter struct {
	fs   faultfs.FS
	dir  string
	seq  uint64
	f    faultfs.File
	bw   *bufio.Writer
	size int64 // bytes in the current segment, including buffered
	// synced is the durable prefix: bytes known to be on disk after a
	// successful fsync. It only ever lands on a record boundary (syncs
	// happen after commit markers), which is what lets the CDC tailer
	// read up to it without ever seeing a committed-but-not-durable or
	// torn record.
	synced int64

	scratch bytes.Buffer
}

// createSegment starts a fresh segment file with its magic header.
func createSegment(fs faultfs.FS, dir string, seq uint64) (*walWriter, error) {
	f, err := fs.Create(filepath.Join(dir, segName(seq)))
	if err != nil {
		return nil, fmt.Errorf("oltp: creating WAL segment %d: %w", seq, err)
	}
	w := &walWriter{fs: fs, dir: dir, seq: seq, f: f, bw: bufio.NewWriter(f), size: int64(len(segMagic))}
	if _, err := w.bw.WriteString(segMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("oltp: writing WAL segment header: %w", err)
	}
	return w, nil
}

// openSegmentAppend reopens an existing, already-verified segment for
// appending. size is its verified length (after torn-tail truncation).
func openSegmentAppend(fs faultfs.FS, dir string, seq uint64, size int64) (*walWriter, error) {
	f, err := fs.OpenAppend(filepath.Join(dir, segName(seq)))
	if err != nil {
		return nil, fmt.Errorf("oltp: opening WAL segment %d: %w", seq, err)
	}
	return &walWriter{fs: fs, dir: dir, seq: seq, f: f, bw: bufio.NewWriter(f), size: size, synced: size}, nil
}

// append frames one record into the buffer. The record is not durable
// until sync.
func (w *walWriter) append(rec walRecord) error {
	w.scratch.Reset()
	if err := encodeRecordPayload(&w.scratch, rec); err != nil {
		return err
	}
	n, err := writeFrame(w.bw, w.scratch.Bytes())
	w.size += n
	return err
}

func (w *walWriter) sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.synced = w.size
	return nil
}

// close flushes, syncs and closes the segment, reporting the first error
// but always releasing the file handle.
func (w *walWriter) close() error {
	err := w.bw.Flush()
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	if err == nil {
		w.synced = w.size
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// encodeRecordPayload writes one record's payload, the bytes a frame
// carries.
func encodeRecordPayload(buf *bytes.Buffer, rec walRecord) error {
	buf.WriteByte(byte(rec.op))
	writeUvarint(buf, rec.tx)
	if rec.op == opCommit {
		return nil
	}
	writeUvarint(buf, uint64(rec.id))
	if rec.op == opDelete {
		return nil
	}
	writeUvarint(buf, uint64(len(rec.row)))
	for _, v := range rec.row {
		if err := writeValue(buf, v); err != nil {
			return err
		}
	}
	return nil
}

// byteReader is satisfied by bufio.Reader and bytes.Reader.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// decodeRecordPayload parses one framed payload; trailing bytes are an
// error because the frame length said exactly how long the record is.
func decodeRecordPayload(payload []byte) (walRecord, error) {
	br := bytes.NewReader(payload)
	rec, err := readRecord(br)
	if err != nil {
		return walRecord{}, err
	}
	if br.Len() != 0 {
		return walRecord{}, fmt.Errorf("oltp: %d trailing bytes after record", br.Len())
	}
	return rec, nil
}

// walLayout is what a directory listing says about the log.
type walLayout struct {
	segs     []uint64 // sorted segment sequence numbers
	ckpts    []uint64 // sorted checkpoint numbers
	tmpFiles []string // leftover temp files to sweep
}

func scanWalDir(fs faultfs.FS, dir string) (walLayout, error) {
	var lay walLayout
	names, err := fs.ReadDir(dir)
	if err != nil {
		return lay, fmt.Errorf("oltp: listing store dir: %w", err)
	}
	for _, n := range names {
		switch {
		case n == "wal.log":
			// Opening empty beside a format-1 log would silently hide
			// every row it holds.
			return lay, fmt.Errorf("oltp: %s is a format-1 log, which this version cannot read; refusing to open the store over it",
				filepath.Join(dir, n))
		case strings.HasSuffix(n, ".tmp"):
			lay.tmpFiles = append(lay.tmpFiles, n)
		default:
			if seq, ok := parseSeq(n, "wal-", ".seg"); ok {
				lay.segs = append(lay.segs, seq)
			} else if seq, ok := parseSeq(n, "checkpoint-", ".ckpt"); ok {
				lay.ckpts = append(lay.ckpts, seq)
			}
		}
	}
	sort.Slice(lay.segs, func(a, b int) bool { return lay.segs[a] < lay.segs[b] })
	sort.Slice(lay.ckpts, func(a, b int) bool { return lay.ckpts[a] < lay.ckpts[b] })
	return lay, nil
}

// recover rebuilds committed state from the directory and leaves s.wal
// open on the tail segment, ready to append. It handles both layouts:
// fresh directory, and format-2 segments (+ optional checkpoint).
func (s *Store) recover(fs faultfs.FS, dir string) error {
	lay, err := scanWalDir(fs, dir)
	if err != nil {
		return err
	}
	// Sweep temp files from an interrupted checkpoint: the rename never
	// happened, so they are invisible to recovery semantics.
	for _, n := range lay.tmpFiles {
		if err := fs.Remove(filepath.Join(dir, n)); err != nil {
			return fmt.Errorf("oltp: sweeping %s: %w", n, err)
		}
	}

	var base uint64 // first segment that must be replayed
	if len(lay.ckpts) > 0 {
		base = lay.ckpts[len(lay.ckpts)-1]
		if err := s.loadCheckpoint(fs, dir, base); err != nil {
			return err
		}
		// Older checkpoints are superseded.
		for _, c := range lay.ckpts[:len(lay.ckpts)-1] {
			if err := fs.Remove(filepath.Join(dir, ckptName(c))); err != nil {
				return fmt.Errorf("oltp: removing stale checkpoint %d: %w", c, err)
			}
		}
	}

	// Segments below the checkpoint are subsumed by it (a crash between
	// checkpoint rename and segment deletion leaves them behind).
	var replay []uint64
	for _, seq := range lay.segs {
		if seq < base {
			if err := fs.Remove(filepath.Join(dir, segName(seq))); err != nil {
				return fmt.Errorf("oltp: removing stale segment %d: %w", seq, err)
			}
			continue
		}
		replay = append(replay, seq)
	}
	if base > 0 && len(replay) > 0 && replay[0] != base {
		return fmt.Errorf("%w: missing segment %d (checkpoint base)", errCorrupt, base)
	}
	for i, seq := range replay {
		want := replay[0] + uint64(i)
		if seq != want {
			return fmt.Errorf("%w: missing segment %d (found %d)", errCorrupt, want, seq)
		}
	}

	tailSize := int64(-1)
	magic := int64(len(segMagic))
	for i, seq := range replay {
		last := i == len(replay)-1
		data, _, err := s.readSegmentFrom(seq, magic, last)
		if errors.Is(err, errShortHeader) {
			break // the tail died before its header landed: recreate it
		}
		if err != nil {
			return err
		}
		end, maxTx, err := scanSegment(seq, data, magic, last, func(_ uint64, changes []Change, _ int64) bool {
			for _, ch := range changes {
				s.applyLocked(&writeOp{op: walOp(ch.Op), id: ch.ID, row: ch.Row})
			}
			return true
		})
		if err != nil {
			return err
		}
		s.nextTx = max(s.nextTx, maxTx)
		if last {
			tailSize = end
		}
	}

	switch {
	case len(replay) == 0:
		seq := base
		if seq == 0 {
			seq = 1
		}
		w, err := createSegment(fs, dir, seq)
		if err != nil {
			return err
		}
		s.wal = w
	case tailSize < 0:
		// Tail segment died before its header landed: recreate it.
		w, err := createSegment(fs, dir, replay[len(replay)-1])
		if err != nil {
			return err
		}
		s.wal = w
	default:
		tail := replay[len(replay)-1]
		// Physically drop any torn tail so the next append starts at a
		// clean frame boundary.
		if err := fs.Truncate(filepath.Join(dir, segName(tail)), tailSize); err != nil {
			return fmt.Errorf("oltp: truncating torn WAL tail: %w", err)
		}
		w, err := openSegmentAppend(fs, dir, tail, tailSize)
		if err != nil {
			return err
		}
		s.wal = w
	}
	return nil
}

func readRecord(br byteReader) (walRecord, error) {
	opb, err := br.ReadByte()
	if err != nil {
		return walRecord{}, err
	}
	op := walOp(opb)
	if op < opInsert || op > opMeta {
		return walRecord{}, fmt.Errorf("oltp: bad WAL op %d", opb)
	}
	tx, err := binary.ReadUvarint(br)
	if err != nil {
		return walRecord{}, err
	}
	rec := walRecord{tx: tx, op: op}
	if op == opCommit {
		return rec, nil
	}
	id, err := binary.ReadUvarint(br)
	if err != nil {
		return walRecord{}, err
	}
	rec.id = RowID(id)
	if op == opDelete {
		return rec, nil
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return walRecord{}, err
	}
	const maxRowWidth = 1 << 16
	if n > maxRowWidth {
		return walRecord{}, fmt.Errorf("oltp: WAL row width %d exceeds limit", n)
	}
	rec.row = make(Row, n)
	for i := range rec.row {
		v, err := readValue(br)
		if err != nil {
			return walRecord{}, err
		}
		rec.row[i] = v
	}
	return rec, nil
}

func writeValue(buf *bytes.Buffer, v value.Value) error {
	buf.WriteByte(byte(v.Kind()))
	switch v.Kind() {
	case value.NAKind:
	case value.IntKind:
		writeVarint(buf, v.Int())
	case value.BoolKind:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		buf.WriteByte(b)
	case value.TimeKind:
		writeVarint(buf, v.Time().UnixNano())
	case value.FloatKind:
		var fb [8]byte
		binary.LittleEndian.PutUint64(fb[:], math.Float64bits(v.Float()))
		buf.Write(fb[:])
	case value.StringKind:
		s := v.Str()
		writeUvarint(buf, uint64(len(s)))
		buf.WriteString(s)
	default:
		return fmt.Errorf("oltp: cannot encode kind %v", v.Kind())
	}
	return nil
}

func readValue(br byteReader) (value.Value, error) {
	kb, err := br.ReadByte()
	if err != nil {
		return value.NA(), err
	}
	switch value.Kind(kb) {
	case value.NAKind:
		return value.NA(), nil
	case value.IntKind:
		i, err := binary.ReadVarint(br)
		if err != nil {
			return value.NA(), err
		}
		return value.Int(i), nil
	case value.BoolKind:
		b, err := br.ReadByte()
		if err != nil {
			return value.NA(), err
		}
		return value.Bool(b != 0), nil
	case value.TimeKind:
		n, err := binary.ReadVarint(br)
		if err != nil {
			return value.NA(), err
		}
		return value.Time(timeUnixNano(n)), nil
	case value.FloatKind:
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return value.NA(), err
		}
		return value.Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))), nil
	case value.StringKind:
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return value.NA(), err
		}
		const maxString = 1 << 24
		if n > maxString {
			return value.NA(), fmt.Errorf("oltp: WAL string length %d exceeds limit", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return value.NA(), err
		}
		return value.Str(string(buf)), nil
	}
	return value.NA(), fmt.Errorf("oltp: bad WAL value kind %d", kb)
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	buf.Write(b[:n])
}

func writeVarint(buf *bytes.Buffer, v int64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutVarint(b[:], v)
	buf.Write(b[:n])
}
