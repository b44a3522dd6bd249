package oltp

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/ddgms/ddgms/internal/faultfs"
)

// Crash-recovery invariant harness. A deterministic randomized workload of
// interleaved transactions runs against a store whose filesystem crashes
// at an exact injection point; the store is then reopened on the surviving
// files and checked against an oracle:
//
//   - every transaction whose Commit returned nil is fully present;
//   - every transaction that rolled back or never reached Commit is fully
//     absent;
//   - the at-most-one transaction whose Commit was interrupted is either
//     fully present or fully absent (crash-atomicity), never partial;
//   - secondary indexes agree exactly with the recovered rows;
//   - the reopened store accepts new commits.
//
// Sweeping the crash point across every state-changing filesystem
// operation of the workload covers torn record writes (partial-write
// fractions), failed syncs, segment rotation, checkpoint publication and
// old-segment truncation.

// crashOpts keeps segments and checkpoints small so a modest workload
// crosses both thresholds many times.
func crashOpts(fs faultfs.FS) Options {
	return Options{FS: fs, SegmentBytes: 1 << 10, CheckpointBytes: 4 << 10}
}

// oracleState is committed rows as the test tracks them.
type oracleState map[RowID]Row

func (st oracleState) clone() oracleState {
	out := make(oracleState, len(st))
	for id, r := range st {
		out[id] = cloneRow(r)
	}
	return out
}

func (st oracleState) sortedIDs() []RowID {
	ids := make([]RowID, 0, len(st))
	for id := range st {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// crashOutcome is what the workload knew when the crash hit.
type crashOutcome struct {
	confirmed oracleState // state as of the last acknowledged commit
	inflight  oracleState // state if the interrupted commit landed; nil if none
}

var genders = []string{"F", "M", "X"}

// runCrashWorkload drives seeded random transactions against a store in
// dir until the workload finishes or the injected crash kills it. The
// returned outcome is valid in both cases.
func runCrashWorkload(dir string, fs faultfs.FS, seed int64, txns int) crashOutcome {
	rng := rand.New(rand.NewSource(seed))
	out := crashOutcome{confirmed: make(oracleState)}

	s, err := OpenWith(dir, testSchema(), crashOpts(fs))
	if err != nil {
		return out
	}
	defer s.Close()
	// A live index lets applyLocked's index maintenance run during the
	// workload too, not only at post-recovery rebuild.
	if err := s.CreateIndex("Gender"); err != nil {
		return out
	}

	for i := 0; i < txns; i++ {
		tx := s.Begin()
		next := out.confirmed.clone()
		nOps := 1 + rng.Intn(3)
		for o := 0; o < nOps; o++ {
			ids := next.sortedIDs()
			switch {
			case len(ids) == 0 || rng.Float64() < 0.5: // insert
				r := row(int64(rng.Intn(50)), float64(rng.Intn(100)), genders[rng.Intn(len(genders))])
				id, err := tx.Insert(r)
				if err != nil {
					return out
				}
				next[id] = cloneRow(r)
			case rng.Float64() < 0.6: // update
				id := ids[rng.Intn(len(ids))]
				r := row(next[id][0].Int(), float64(rng.Intn(100)), genders[rng.Intn(len(genders))])
				if err := tx.Update(id, r); err != nil {
					return out
				}
				next[id] = cloneRow(r)
			default: // delete
				id := ids[rng.Intn(len(ids))]
				if err := tx.Delete(id); err != nil {
					return out
				}
				delete(next, id)
			}
		}
		if rng.Float64() < 0.2 {
			tx.Rollback()
			continue
		}
		if err := tx.Commit(); err != nil {
			// Interrupted mid-commit: the WAL may or may not hold the full
			// transaction, so recovery may legitimately land either way.
			out.inflight = next
			return out
		}
		out.confirmed = next
	}
	return out
}

// dumpState reads every committed row of a store.
func dumpState(s *Store) oracleState {
	tx := s.Begin()
	defer tx.Rollback()
	got := make(oracleState)
	tx.Scan(func(id RowID, r Row) bool {
		got[id] = r
		return true
	})
	return got
}

func statesEqual(a, b oracleState) bool {
	if len(a) != len(b) {
		return false
	}
	for id, ra := range a {
		rb, ok := b[id]
		if !ok || len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if !ra[i].Equal(rb[i]) {
				return false
			}
		}
	}
	return true
}

func describeState(st oracleState) string {
	var buf bytes.Buffer
	for _, id := range st.sortedIDs() {
		fmt.Fprintf(&buf, "%d:%v ", id, st[id])
	}
	return buf.String()
}

// verifyRecovered reopens dir on the real filesystem and checks the
// crash-recovery invariants against the oracle.
func verifyRecovered(t *testing.T, label, dir string, out crashOutcome) {
	t.Helper()
	s, err := OpenWith(dir, testSchema(), crashOpts(faultfs.OS{}))
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", label, err)
	}
	defer s.Close()

	got := dumpState(s)
	if !statesEqual(got, out.confirmed) && (out.inflight == nil || !statesEqual(got, out.inflight)) {
		t.Fatalf("%s: recovered state matches neither pre- nor post-commit oracle\n got:       %s\n confirmed: %s\n inflight:  %s",
			label, describeState(got), describeState(out.confirmed), describeState(out.inflight))
	}

	// Secondary index must agree exactly with the recovered rows.
	if err := s.CreateIndex("Gender"); err != nil {
		t.Fatalf("%s: CreateIndex: %v", label, err)
	}
	ix := s.indexes["Gender"]
	indexed := 0
	for v, ids := range ix.hash {
		for _, id := range ids {
			r, ok := got[id]
			if !ok {
				t.Fatalf("%s: index entry %v -> %d has no row", label, v, id)
			}
			if !r[ix.col].Equal(v) {
				t.Fatalf("%s: index entry %v -> %d disagrees with row value %v", label, v, id, r[ix.col])
			}
			indexed++
		}
	}
	want := 0
	for _, r := range got {
		if !r[ix.col].IsNA() {
			want++
		}
	}
	if indexed != want {
		t.Fatalf("%s: index has %d entries, rows have %d indexable values", label, indexed, want)
	}

	// The recovered store must accept new work.
	tx := s.Begin()
	if _, err := tx.Insert(row(7777, 1, "F")); err != nil {
		t.Fatalf("%s: insert after recovery: %v", label, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("%s: commit after recovery: %v", label, err)
	}
}

// countWorkloadOps measures the injection-point space of the workload.
func countWorkloadOps(t *testing.T, seed int64, txns int) int {
	t.Helper()
	count := faultfs.NewFault(faultfs.OS{})
	dir := t.TempDir()
	out := runCrashWorkload(dir, count, seed, txns)
	if out.inflight != nil {
		t.Fatal("unarmed workload reported a crash")
	}
	// Control: the uncrashed run must verify too.
	verifyRecovered(t, "control", dir, out)
	return count.Ops()
}

// TestCrashRecoveryEveryInjectionPoint is the acceptance sweep: a ≥200
// transaction randomized workload, crashed at every injection point, with
// the partial-write fraction of the failing operation varied across the
// sweep.
func TestCrashRecoveryEveryInjectionPoint(t *testing.T) {
	const seed, txns = 42, 220
	total := countWorkloadOps(t, seed, txns)
	if total < 100 {
		t.Fatalf("workload exercised only %d injection points", total)
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}
	fracs := []float64{0, 0.5, 1}
	for i := 1; i <= total; i += stride {
		frac := fracs[i%len(fracs)]
		label := fmt.Sprintf("point %d/%d frac %g", i, total, frac)
		fault := faultfs.NewFault(faultfs.OS{}).CrashAt(i, frac)
		dir := t.TempDir()
		out := runCrashWorkload(dir, fault, seed, txns)
		if !fault.Crashed() {
			t.Fatalf("%s: fault did not fire", label)
		}
		verifyRecovered(t, label, dir, out)
	}
}

// TestCrashRecoveryRandomSeeds is the long-haul variant scripts/crash.sh
// runs: fresh workload seeds, random crash points. DDGMS_CRASH_SEEDS
// selects how many seeds (default 2 for CI).
func TestCrashRecoveryRandomSeeds(t *testing.T) {
	seeds := 2
	if env := os.Getenv("DDGMS_CRASH_SEEDS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("bad DDGMS_CRASH_SEEDS %q", env)
		}
		seeds = n
	}
	const txns = 200
	for seed := int64(1); seed <= int64(seeds); seed++ {
		total := countWorkloadOps(t, seed, txns)
		pick := rand.New(rand.NewSource(seed * 7919))
		points := 30
		if testing.Short() {
			points = 5
		}
		for p := 0; p < points; p++ {
			i := 1 + pick.Intn(total)
			frac := []float64{0, 0.25, 0.5, 0.75, 1}[pick.Intn(5)]
			label := fmt.Sprintf("seed %d point %d frac %g", seed, i, frac)
			fault := faultfs.NewFault(faultfs.OS{}).CrashAt(i, frac)
			dir := t.TempDir()
			out := runCrashWorkload(dir, fault, seed, txns)
			if !fault.Crashed() {
				t.Fatalf("%s: fault did not fire", label)
			}
			verifyRecovered(t, label, dir, out)
		}
	}
}

// TestCrashRecoverySurvivesCheckpoints pins down that rotation and
// checkpointing actually happened under the crash workload sizes — the
// sweep above is vacuous for those paths otherwise.
func TestCrashRecoverySurvivesCheckpoints(t *testing.T) {
	dir := t.TempDir()
	out := runCrashWorkload(dir, faultfs.OS{}, 11, 300)
	lay, err := scanWalDir(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.ckpts) == 0 {
		t.Fatal("300-txn workload produced no checkpoint; thresholds too high for the sweep to cover that path")
	}
	if lay.segs[0] != lay.ckpts[len(lay.ckpts)-1] {
		t.Errorf("segments %v not truncated to checkpoint base %d", lay.segs, lay.ckpts[len(lay.ckpts)-1])
	}
	verifyRecovered(t, "checkpointed", dir, out)
}

// TestFaultV1WALRefused: no reader for the format-1 wal.log (bare
// records, no frames or checksums) remains, so a store directory holding
// one — even an empty one — must be refused with an error naming the
// file, and left exactly as found. Starting empty over it would silently
// hide every row it holds.
func TestFaultV1WALRefused(t *testing.T) {
	var v1 bytes.Buffer
	for _, rec := range []walRecord{
		{tx: 1, op: opInsert, id: 1, row: row(10, 5.5, "F")},
		{tx: 1, op: opCommit},
	} {
		if err := encodeRecordPayload(&v1, rec); err != nil {
			t.Fatal(err)
		}
	}
	for name, content := range map[string][]byte{"committed rows": v1.Bytes(), "empty": nil} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "wal.log")
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, testSchema())
			if err == nil {
				s.Close()
				t.Fatal("store opened over a format-1 wal.log")
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("refusal %q does not name %s", err, path)
			}
			names, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 1 || names[0].Name() != "wal.log" {
				t.Errorf("refused open changed the directory: %v", names)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, content) {
				t.Errorf("wal.log altered by the refused open (err=%v)", err)
			}
		})
	}
}

// TestCrashRecoveryInterleavedUncommitted writes interleaved records of
// two transactions with only one commit marker — the disk image a crash
// leaves when transactions race — and checks recovery applies exactly the
// committed one.
func TestCrashRecoveryInterleavedUncommitted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	tx.Insert(row(1, 1, "F"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Interleave two raw transactions in the log; commit only tx 101.
	s.walMu.Lock()
	s.wal.append(walRecord{tx: 101, op: opInsert, id: 10, row: row(20, 2, "M")})
	s.wal.append(walRecord{tx: 102, op: opInsert, id: 11, row: row(21, 3, "F")})
	s.wal.append(walRecord{tx: 101, op: opInsert, id: 12, row: row(22, 4, "X")})
	s.wal.append(walRecord{tx: 102, op: opUpdate, id: 11, row: row(21, 9, "F")})
	s.wal.append(walRecord{tx: 101, op: opCommit})
	s.wal.sync()
	s.walMu.Unlock()
	s.Close()

	s2 := mustOpen(t, dir)
	if s2.Len() != 3 { // row 1 + tx 101's two inserts
		t.Fatalf("recovered %d rows, want 3", s2.Len())
	}
	tx = s2.Begin()
	defer tx.Rollback()
	if _, ok := tx.Get(10); !ok {
		t.Error("committed interleaved insert missing")
	}
	if _, ok := tx.Get(12); !ok {
		t.Error("committed interleaved insert missing")
	}
	if _, ok := tx.Get(11); ok {
		t.Error("uncommitted interleaved insert recovered")
	}
}

// TestCrashRecoveryUpdateDeleteSameRow reopens after a history that
// repeatedly rewrites and finally reinstates the same RowID across
// transactions — the replay order-sensitivity case.
func TestCrashRecoveryUpdateDeleteSameRow(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	id, _ := tx.Insert(row(1, 1, "F"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tx = s.Begin()
		if err := tx.Update(id, row(1, float64(10+i), "M")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx = s.Begin()
	if err := tx.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = s.Begin()
	id2, _ := tx.Insert(row(2, 99, "F"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, dir)
	if s2.Len() != 1 {
		t.Fatalf("recovered %d rows, want 1", s2.Len())
	}
	tx = s2.Begin()
	defer tx.Rollback()
	if _, ok := tx.Get(id); ok {
		t.Error("deleted row resurrected after update/delete history")
	}
	r, ok := tx.Get(id2)
	if !ok || r[1].Float() != 99 {
		t.Errorf("reinstated row = %v, %v", r, ok)
	}
}

// TestCrashRecoveryExplicitCheckpoint covers the public Checkpoint path:
// state survives, the log is truncated, and both halves (checkpoint load +
// post-checkpoint segment replay) contribute rows on reopen.
func TestCrashRecoveryExplicitCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tx := s.Begin()
		tx.Insert(row(int64(i), float64(i), "F"))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// More commits after the checkpoint land in the fresh segment.
	for i := 10; i < 15; i++ {
		tx := s.Begin()
		tx.Insert(row(int64(i), float64(i), "M"))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	lay, err := scanWalDir(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.ckpts) != 1 {
		t.Fatalf("checkpoints on disk = %v", lay.ckpts)
	}
	if len(lay.segs) != 1 || lay.segs[0] != lay.ckpts[0] {
		t.Fatalf("segments %v not truncated to checkpoint %d", lay.segs, lay.ckpts[0])
	}
	s2 := mustOpen(t, dir)
	if s2.Len() != 15 {
		t.Errorf("recovered %d rows, want 15", s2.Len())
	}
}
