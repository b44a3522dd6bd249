package oltp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ddgms/ddgms/internal/faultfs"
)

// Promotion round-trip at the store layer: a store that lived as a
// replica (SetReplica(true) + ApplyReplicated) must be able to drop
// replica mode and serve local commits on the same WAL — with
// transaction IDs continuing where replication left off, a verifiable
// WAL tail, and all of it surviving reopen. This is the substrate the
// repl.Promote path stands on.
func TestReplicaPromotionRoundTrip(t *testing.T) {
	primary, err := OpenWith(t.TempDir(), testSchema(), tailOpts(faultfs.OS{}))
	if err != nil {
		t.Fatalf("OpenWith primary: %v", err)
	}
	defer primary.Close()
	txs := primaryWorkload(t, primary, 40)

	dir := t.TempDir()
	replica, err := OpenWith(dir, testSchema(), tailOpts(faultfs.OS{}))
	if err != nil {
		t.Fatalf("OpenWith replica: %v", err)
	}
	defer replica.Close()
	replica.SetReplica(true)
	if err := replica.ApplyReplicated(txs); err != nil {
		t.Fatalf("ApplyReplicated: %v", err)
	}
	sameState(t, stateOf(t, primary), stateOf(t, replica))

	// The promotion gate: every retained WAL record re-reads cleanly and
	// the verified cursor is exactly the durable end.
	verified, err := replica.VerifyWALTail()
	if err != nil {
		t.Fatalf("VerifyWALTail: %v", err)
	}
	durable, err := replica.DurableLSN()
	if err != nil {
		t.Fatalf("DurableLSN: %v", err)
	}
	if verified != durable {
		t.Fatalf("verified tail %s != durable end %s", verified, durable)
	}

	// Drop replica mode: local commits are accepted again.
	replica.SetReplica(false)
	for i := 0; i < 10; i++ {
		tx := replica.Begin()
		if _, err := tx.Insert(row(int64(5000+i), float64(i), "M")); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("post-promotion Commit: %v", err)
		}
	}

	// Transaction-ID continuity: the local feed shows the replicated
	// history followed by the new local commits, with tx ids strictly
	// increasing across the promotion boundary — one log, one timeline.
	all, _ := drainTail(t, replica, WALCursor{}, 16)
	if len(all) != len(txs)+10 {
		t.Fatalf("local feed has %d txs, want %d replicated + 10 local", len(all), len(txs))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Tx <= all[i-1].Tx {
			t.Fatalf("tx ids not increasing across promotion: %d then %d", all[i-1].Tx, all[i].Tx)
		}
	}
	maxReplicated := txs[len(txs)-1].Tx
	if all[len(txs)].Tx <= maxReplicated {
		t.Fatalf("first local tx id %d does not continue after replicated max %d",
			all[len(txs)].Tx, maxReplicated)
	}

	// Re-promotion is idempotent in effect: bouncing through replica
	// mode and back leaves the store writable with the same continuity.
	replica.SetReplica(true)
	tx := replica.Begin()
	if _, err := tx.Insert(row(6000, 1, "F")); err != nil {
		t.Fatalf("Insert staging: %v", err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("local commit accepted while replica again")
	}
	replica.SetReplica(false)
	tx = replica.Begin()
	if _, err := tx.Insert(row(6001, 1, "F")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit after re-promotion bounce: %v", err)
	}

	// The whole promoted history survives crash+reopen, and the tail
	// still verifies end to end.
	want := stateOf(t, replica)
	if err := replica.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reopened, err := OpenWith(dir, testSchema(), tailOpts(faultfs.OS{}))
	if err != nil {
		t.Fatalf("reopen promoted store: %v", err)
	}
	defer reopened.Close()
	sameState(t, want, stateOf(t, reopened))
	if _, err := reopened.VerifyWALTail(); err != nil {
		t.Fatalf("VerifyWALTail after reopen: %v", err)
	}
}

// VerifyWALTail must notice a corrupted retained record — that is the
// whole point of running it before a promotion.
func TestVerifyWALTailDetectsCorruption(t *testing.T) {
	fs := faultfs.OS{}
	dir := t.TempDir()
	s, err := OpenWith(dir, testSchema(), tailOpts(fs))
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	defer s.Close()
	primaryWorkload(t, s, 30)
	if _, err := s.VerifyWALTail(); err != nil {
		t.Fatalf("VerifyWALTail on intact log: %v", err)
	}

	// Flip one byte mid-record in the oldest segment: unlike a torn
	// final record (which recovery legitimately truncates), mid-log
	// corruption must fail verification outright.
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var seg string
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") && (seg == "" || n < seg) {
			seg = n
		}
	}
	if seg == "" {
		t.Fatalf("no WAL segment found in %v", names)
	}
	path := filepath.Join(dir, seg)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := s.VerifyWALTail(); err == nil {
		t.Fatal("VerifyWALTail accepted a corrupted segment")
	}
}
