package core

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/storage"
)

// tableDigest hashes a table's schema and every cell, in row order, as
// kind and String(): two tables hash equal exactly when they hold the
// same columns and the same values in the same places.
func tableDigest(t *storage.Table) string {
	h := sha256.New()
	for _, f := range t.Schema().Fields() {
		io.WriteString(h, f.Name+"\x1f"+f.Kind.String()+"\x1e")
	}
	for i := 0; i < t.Len(); i++ {
		for j := 0; j < t.Schema().Len(); j++ {
			v := t.ColumnAt(j).Value(i)
			io.WriteString(h, v.Kind().String()+"\x1f"+v.String()+"\x1e")
		}
		io.WriteString(h, "\x1d")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSetupGoldenDigests pins the generator's output and the DiScRi
// pipeline's output over it at 900 patients. The digests were computed
// at commit 9658eb2, before set-up was made columnar (the generator
// building the schema per attendance, a row-wise Clone), and must not
// move: a change to the random stream, the column order or any ETL step
// shows here, where TestGenerateDeterministic, which compares two runs of
// the same code, cannot see it. A change that moves them on purpose (a
// new member order, a new derived column) restates them and says why.
func TestSetupGoldenDigests(t *testing.T) {
	const (
		wantRaw  = "cfcc37ca68605929b7831441f2d184b652eb1f92f09b16136530d4a32d7fd901"
		wantFlat = "236f43a8dbafd625a3c8e70e9d4a048c3e4db41c3d6174c36d952ca156ceb11c"
	)
	raw, err := discri.Generate(discri.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := tableDigest(raw); got != wantRaw {
		t.Errorf("discri.Generate digest = %s, want %s", got, wantRaw)
	}
	flat, err := NewDiScRiPipeline().Run(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := tableDigest(flat); got != wantFlat {
		t.Errorf("DiScRi pipeline digest = %s, want %s", got, wantFlat)
	}
}
