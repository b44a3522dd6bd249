package repl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"github.com/ddgms/ddgms/internal/faultfs"
)

// The node's replication epoch (fencing term) is persisted on the
// primary side in its own file: a primary must come back after a crash
// still knowing which epoch it led, or a fenced ex-primary could
// restart believing itself current. Followers persist their epoch
// inside the cursor record instead (see cursor.go); a node that has
// been both reads the max of the two.
const (
	epochMagic = "DDGREPO1"
	epochFile  = "repl.epoch"
)

// saveTerm durably persists one term number under dir/name as
// magic + uvarint + CRC32-C, with writeDurable's tmp+sync+rename
// discipline: a crash leaves the old record or the new one.
func saveTerm(fs faultfs.FS, dir, name, magic string, term uint64) error {
	var buf bytes.Buffer
	buf.WriteString(magic)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], term)
	buf.Write(tmp[:n])
	sum := crc32.Checksum(buf.Bytes()[len(magic):], castagnoli)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sum)
	buf.Write(crc[:])
	return writeDurable(fs, dir, name, buf.Bytes())
}

// loadTerm reads a saveTerm record; ok=false when none exists or the
// first save was torn.
func loadTerm(fs faultfs.FS, dir, name, magic string) (term uint64, ok bool, err error) {
	f, err := fs.Open(filepath.Join(dir, name))
	if err != nil {
		return 0, false, nil
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return 0, false, fmt.Errorf("repl: reading %s: %w", name, err)
	}
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return 0, false, nil // torn first save
	}
	body := data[len(magic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != want {
		return 0, false, fmt.Errorf("repl: %s checksum mismatch", name)
	}
	br := bytes.NewReader(body)
	term, err = binary.ReadUvarint(br)
	if err != nil || br.Len() != 0 {
		return 0, false, fmt.Errorf("repl: bad %s payload", name)
	}
	return term, true, nil
}

// saveEpoch persists the epoch durably under dir.
func saveEpoch(fs faultfs.FS, dir string, epoch uint64) error {
	return saveTerm(fs, dir, epochFile, epochMagic, epoch)
}

// loadEpoch reads the persisted epoch; ok=false when none exists or the
// first save was torn.
func loadEpoch(fs faultfs.FS, dir string) (epoch uint64, ok bool, err error) {
	return loadTerm(fs, dir, epochFile, epochMagic)
}

// knownEpoch is the highest epoch durably recorded under dir, across
// both the follower cursor record and the primary epoch file. A node
// that was promoted and later demoted has both; fencing correctness
// needs the max. The vote record (vote.go) is deliberately not read:
// an epoch voted for is not an epoch anyone led.
func knownEpoch(fs faultfs.FS, dir string) (uint64, error) {
	var max uint64
	if e, ok, err := loadEpoch(fs, dir); err != nil {
		return 0, err
	} else if ok && e > max {
		max = e
	}
	if e, _, ok, err := loadCursor(fs, dir); err != nil {
		return 0, err
	} else if ok && e > max {
		max = e
	}
	return max, nil
}
