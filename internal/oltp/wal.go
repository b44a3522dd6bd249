package oltp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// On-disk format, version 2 (format 1 was a single unframed wal.log; no
// reader for it remains, and a directory holding one is refused — see
// scanWalDir). The log is a sequence of numbered segment files
// wal-NNNNNNNN.seg, each starting with an 8-byte magic and containing
// framed records:
//
//	frame   length  uint32 LE   (payload bytes)
//	        crc     uint32 LE   (CRC32-C of payload)
//	        payload
//
//	payload op   1 byte
//	        tx   uvarint
//	        id   uvarint        (data records only)
//	        nval uvarint        (data records with rows only)
//	        vals nval × value   (kind byte + payload)
//
// Commit markers consist of just op+tx. Recovery replays records of
// committed transactions across segments in sequence order. An incomplete
// frame at the end of the LAST segment is a torn tail from a crash: it is
// physically truncated away and the store continues. A checksum mismatch,
// an implausible frame length, or an incomplete frame anywhere else is
// mid-log corruption and recovery fails loudly with the segment and byte
// offset — a flipped bit is never silently replayed.
//
// A checkpoint file checkpoint-NNNNNNNN.ckpt holds a full snapshot of
// committed state; its number is the first segment sequence that must be
// replayed on top of it. Checkpoints are written to a temp file, synced
// and renamed, so a crash never exposes a partial checkpoint; after a
// checkpoint lands, older segments and checkpoints are deleted.

const (
	segMagic  = "DDGWSEG2"
	ckptMagic = "DDGWCKP2"

	frameHeader = 8       // uint32 length + uint32 crc
	maxFrame    = 1 << 26 // sanity bound on one record
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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
	payload := w.scratch.Bytes()
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.size += int64(frameHeader + len(payload))
	return nil
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

// encodeRecordPayload writes the unframed record encoding (shared between
// format 1, where records are concatenated bare, and format 2, where each
// payload is framed with a length and checksum).
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

// replayState carries pending (uncommitted) transactions across segment
// boundaries during recovery, and the highest transaction id seen so the
// reopened store never reuses one.
type replayState struct {
	pending map[uint64][]*writeOp
	maxTx   uint64
}

func newReplayState() *replayState {
	return &replayState{pending: make(map[uint64][]*writeOp)}
}

// applyRecord feeds one recovered record through the commit protocol.
func (s *Store) applyRecord(st *replayState, rec walRecord) {
	if rec.tx > st.maxTx {
		st.maxTx = rec.tx
	}
	if rec.op == opCommit {
		for _, w := range st.pending[rec.tx] {
			s.applyLocked(w)
		}
		delete(st.pending, rec.tx)
		return
	}
	st.pending[rec.tx] = append(st.pending[rec.tx], &writeOp{op: rec.op, id: rec.id, row: rec.row})
}

// replaySegment scans one segment. last marks the final segment of the
// log, whose incomplete tail frame (if any) is a legitimate torn write;
// the returned validSize is the byte offset up to which the segment is
// intact, so the caller can truncate the tear away. Everywhere else an
// incomplete or checksum-failing frame is corruption, reported with its
// offset.
func (s *Store) replaySegment(fs faultfs.FS, dir string, seq uint64, last bool, st *replayState) (validSize int64, err error) {
	name := segName(seq)
	f, err := fs.Open(filepath.Join(dir, name))
	if err != nil {
		return 0, fmt.Errorf("oltp: opening WAL segment for replay: %w", err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return 0, fmt.Errorf("oltp: reading WAL segment %s: %w", name, err)
	}

	if len(data) < len(segMagic) {
		// Shorter than the magic: only a torn segment creation can do this,
		// and only to the last segment.
		if last {
			return -1, nil // signal: recreate this segment from scratch
		}
		return 0, fmt.Errorf("%w: segment %s: truncated header (%d bytes)", errCorrupt, name, len(data))
	}
	if string(data[:len(segMagic)]) != segMagic {
		return 0, fmt.Errorf("%w: segment %s: bad magic at offset 0", errCorrupt, name)
	}

	off := len(segMagic)
	for off < len(data) {
		rem := len(data) - off
		if rem < frameHeader {
			if last {
				return int64(off), nil
			}
			return 0, fmt.Errorf("%w: segment %s: truncated frame header at offset %d", errCorrupt, name, off)
		}
		length := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > maxFrame {
			// A torn write leaves a strict prefix of valid bytes, so a
			// fully-present header with an absurd length can only be rot.
			return 0, fmt.Errorf("%w: segment %s: implausible record length %d at offset %d", errCorrupt, name, length, off)
		}
		if rem < frameHeader+int(length) {
			if last {
				return int64(off), nil
			}
			return 0, fmt.Errorf("%w: segment %s: truncated record at offset %d", errCorrupt, name, off)
		}
		payload := data[off+frameHeader : off+frameHeader+int(length)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return 0, fmt.Errorf("%w: segment %s: checksum mismatch at offset %d", errCorrupt, name, off)
		}
		rec, err := decodeRecordPayload(payload)
		if err != nil {
			return 0, fmt.Errorf("%w: segment %s: undecodable record at offset %d: %v", errCorrupt, name, off, err)
		}
		s.applyRecord(st, rec)
		off += frameHeader + int(length)
	}
	return int64(off), nil
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

	st := newReplayState()
	tailSize := int64(-1)
	for i, seq := range replay {
		last := i == len(replay)-1
		size, err := s.replaySegment(fs, dir, seq, last, st)
		if err != nil {
			return err
		}
		if last {
			tailSize = size
		}
	}
	if st.maxTx > s.nextTx {
		s.nextTx = st.maxTx
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
