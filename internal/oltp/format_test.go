package oltp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/faultfs"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// goldenMeta is a deterministic MetaApplier: it keeps the payloads in
// order, and a "snap:" payload (its own Snapshot) replaces the list.
type goldenMeta struct{ items []string }

func (m *goldenMeta) Apply(p []byte) {
	if s, ok := strings.CutPrefix(string(p), "snap:"); ok {
		m.items = nil
		if s != "" {
			m.items = strings.Split(s, ",")
		}
		return
	}
	m.items = append(m.items, string(p))
}

func (m *goldenMeta) Snapshot() []byte { return []byte("snap:" + strings.Join(m.items, ",")) }

// goldenSchema covers every value kind the record encoding writes.
func goldenSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Field{Name: "PatientID", Kind: value.IntKind},
		storage.Field{Name: "FBG", Kind: value.FloatKind},
		storage.Field{Name: "Gender", Kind: value.StringKind},
		storage.Field{Name: "Smoker", Kind: value.BoolKind},
		storage.Field{Name: "Visit", Kind: value.TimeKind},
	)
}

func goldenRow(i int) Row {
	fbg := value.Float(4.5 + float64(i)/8)
	if i%5 == 3 {
		fbg = value.NA()
	}
	return Row{
		value.Int(int64(1000 + i)),
		fbg,
		value.Str(genders[i%len(genders)]),
		value.Bool(i%2 == 0),
		value.Time(time.Date(2013, 4, 8, 9, 30, 0, 0, time.UTC).Add(time.Duration(i) * 24 * time.Hour)),
	}
}

// fileDigests returns "label/name" -> SHA-256 of every file in dir.
func fileDigests(t *testing.T, dir, label string, into map[string]string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		into[label+"/"+e.Name()] = hex.EncodeToString(sum[:])
	}
}

// goldenCommit runs fn in a transaction and commits it.
func goldenCommit(t *testing.T, s *Store, fn func(tx *Tx)) {
	t.Helper()
	tx := s.Begin()
	fn(tx)
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// TestWALFormatGolden pins the bytes the store writes. A fixed history
// (inserts, an update, a delete, meta records, a rolled-back
// transaction, a replicated batch, segment rotation, an explicit
// checkpoint, and a reopen that appends to the recovered tail) runs in
// a fresh directory, and the SHA-256 of every segment and checkpoint
// file is compared at three points. A refactor of the log's writers or
// readers must leave every digest as it is: the format is
// DDGWSEG2/DDGWCKP2, and stores written by older builds must open.
func TestWALFormatGolden(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FS: faultfs.OS{}, SegmentBytes: 256, CheckpointBytes: 1 << 30, Meta: &goldenMeta{}}
	s, err := OpenWith(dir, goldenSchema(), opts)
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	var ids []RowID
	goldenCommit(t, s, func(tx *Tx) {
		for i := 0; i < 4; i++ {
			id, err := tx.Insert(goldenRow(i))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	})
	goldenCommit(t, s, func(tx *Tx) {
		if err := tx.Update(ids[1], goldenRow(11)); err != nil {
			t.Fatal(err)
		}
		if err := tx.PutMeta([]byte("finding-1")); err != nil {
			t.Fatal(err)
		}
	})
	goldenCommit(t, s, func(tx *Tx) {
		if err := tx.Delete(ids[0]); err != nil {
			t.Fatal(err)
		}
	})
	rolled := s.Begin()
	if _, err := rolled.Insert(goldenRow(99)); err != nil {
		t.Fatal(err)
	}
	rolled.Rollback()
	if err := s.ApplyReplicated([]CommittedTx{
		{Tx: 71, Changes: []Change{{Op: ChangeInsert, ID: 100, Row: goldenRow(20)}}},
		{Tx: 72, Changes: []Change{{Op: ChangeUpdate, ID: ids[2], Row: goldenRow(21)}, MetaChange([]byte("finding-2"))}},
		{Tx: 73, Changes: []Change{{Op: ChangeDelete, ID: ids[3]}}},
	}); err != nil {
		t.Fatalf("ApplyReplicated: %v", err)
	}
	for i := 30; i < 38; i++ {
		goldenCommit(t, s, func(tx *Tx) {
			if _, err := tx.Insert(goldenRow(i)); err != nil {
				t.Fatal(err)
			}
		})
	}
	got := map[string]string{}
	fileDigests(t, dir, "rotated", got)

	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	goldenCommit(t, s, func(tx *Tx) {
		if _, err := tx.Insert(goldenRow(40)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete(ids[2]); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fileDigests(t, dir, "checkpointed", got)

	meta2 := &goldenMeta{}
	opts.Meta = meta2
	s, err = OpenWith(dir, goldenSchema(), opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if want := "finding-1,finding-2"; strings.Join(meta2.items, ",") != want {
		t.Errorf("recovered meta = %q, want %q", meta2.items, want)
	}
	if n := s.Len(); n != 11 {
		t.Errorf("recovered %d rows, want 11", n)
	}
	goldenCommit(t, s, func(tx *Tx) {
		if _, err := tx.Insert(goldenRow(50)); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fileDigests(t, dir, "reopened", got)

	want := map[string]string{
		"rotated/wal-00000001.seg":              "cbe4860b3e2b308874477714a339e0981c4ea031dcae4af59cd50cde94c12ca7",
		"rotated/wal-00000002.seg":              "a6020fbca07b465a71b9551f95be345c02112ba281efa974789b2e817263c40b",
		"rotated/wal-00000003.seg":              "2d525c180a9d90c352949a0ddde17e7df3408d7f1149292b852312001df61c6e",
		"checkpointed/checkpoint-00000004.ckpt": "fd38821b95cb699a49efb3a7d126cb3774b1a97fc3d8519e8ce7d784a1bb7f5c",
		"checkpointed/wal-00000004.seg":         "a6b917f9d40ca904473ba16ce64d217dfeeef58151483ee0e29ae31e983a6946",
		"reopened/checkpoint-00000004.ckpt":     "fd38821b95cb699a49efb3a7d126cb3774b1a97fc3d8519e8ce7d784a1bb7f5c",
		"reopened/wal-00000004.seg":             "0feb8fe75ba039a48f08af1ddad64159901ece23198fbca2011741cd027ae82c",
	}
	if len(got) != len(want) {
		t.Errorf("%d files, want %d", len(got), len(want))
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var lit strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&lit, "\t\t%q: %q,\n", k, got[k])
		if want[k] != got[k] {
			t.Errorf("%s: digest %s, want %s", k, got[k], want[k])
		}
	}
	if t.Failed() {
		t.Logf("digests written:\n%s", lit.String())
	}
}

// TestCheckpointCorruptionDetected damages a written checkpoint one frame
// at a time: a flipped byte in each frame's length, checksum and
// payload, and a cut at every frame boundary and inside every frame.
// A checkpoint is published by rename only once complete, so any such
// damage is rot: Open must fail with errCorrupt and never come up on a
// partial state.
func TestCheckpointCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for i := 0; i < 5; i++ {
		goldenCommit(t, s, func(tx *Tx) {
			if _, err := tx.Insert(row(int64(i), float64(i)+0.5, genders[i%len(genders)])); err != nil {
				t.Fatal(err)
			}
		})
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ckpt, seg := ckptName(2), segName(2)
	data, err := os.ReadFile(filepath.Join(dir, ckpt))
	if err != nil {
		t.Fatal(err)
	}
	segData, err := os.ReadFile(filepath.Join(dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries: after the magic, one meta frame, five row frames.
	bounds := []int{len(ckptMagic)}
	for off := len(ckptMagic); off < len(data); {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
		bounds = append(bounds, off)
	}
	if len(bounds) != 1+1+5 || bounds[len(bounds)-1] != len(data) {
		t.Fatalf("checkpoint frames end at %v, file is %d bytes", bounds, len(data))
	}

	openDamaged := func(label string, ck []byte) {
		t.Helper()
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, ckpt), ck, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, seg), segData, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(sub, testSchema())
		if err == nil {
			s.Close()
			t.Errorf("%s: Open succeeded with %d rows", label, s.Len())
			return
		}
		if !errors.Is(err, errCorrupt) {
			t.Errorf("%s: Open = %v, want errCorrupt", label, err)
		}
	}
	for f := 0; f+1 < len(bounds); f++ {
		start := bounds[f]
		for _, at := range []struct {
			name string
			off  int
		}{{"length", start}, {"checksum", start + 4}, {"payload", start + 8}} {
			ck := append([]byte(nil), data...)
			ck[at.off] ^= 0x01
			openDamaged(fmt.Sprintf("frame %d %s flip", f, at.name), ck)
		}
		for _, cut := range []int{start, start + 3, start + 9} {
			openDamaged(fmt.Sprintf("frame %d cut at %d", f, cut), data[:cut])
		}
	}
	openDamaged("empty file", nil)
}
