package kb

import (
	"sync"
	"testing"
	"time"
)

// reinforce adds one evidence observation through the event path, the
// only one that changes a finding once recorded: the store replays it
// from the WAL and replication ships it.
func reinforce(b *Base, id string) {
	b.ApplyEvent(Event{Op: EvReinforce, ID: id, At: b.now().UnixNano()})
}

func TestAddAndPromotion(t *testing.T) {
	b := New(3)
	id, err := b.Add("diabetes", "absent reflex + mid glucose predicts diabetes", "mining")
	if err != nil {
		t.Fatal(err)
	}
	f, err := b.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if f.Status != Candidate || f.Evidence != 1 {
		t.Errorf("new finding = %+v", f)
	}
	// Two reinforcements reach the threshold of 3.
	reinforce(b, id)
	if f, _ = b.Get(id); f.Status != Candidate {
		t.Errorf("premature promotion at evidence %d", f.Evidence)
	}
	reinforce(b, id)
	if f, _ = b.Get(id); f.Status != Established || f.Evidence != 3 {
		t.Errorf("after threshold = %+v", f)
	}
	if est := b.Established(); len(est) != 1 || est[0].ID != id {
		t.Errorf("Established = %+v", est)
	}
}

func TestAddDuplicateReinforces(t *testing.T) {
	b := New(2)
	id1, _ := b.Add("topic", "same statement", "olap")
	id2, err := b.Add("topic", "same statement", "olap")
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Errorf("duplicate created new finding %s vs %s", id1, id2)
	}
	f, _ := b.Get(id1)
	if f.Evidence != 2 || f.Status != Established {
		t.Errorf("after duplicate add = %+v", f)
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d", b.Len())
	}
}

func TestValidation(t *testing.T) {
	b := New(0) // default threshold
	if b.PromotionThreshold != 3 {
		t.Errorf("default threshold = %d", b.PromotionThreshold)
	}
	if _, err := b.Add("", "statement", "x"); err == nil {
		t.Error("empty topic must fail")
	}
	if _, err := b.Add("topic", "  ", "x"); err == nil {
		t.Error("blank statement must fail")
	}
	// An event against an unknown id is committed already, so it is
	// ignored; refusing one is core.Platform.ReinforceFinding's job.
	reinforce(b, "F9999")
	if b.Len() != 0 {
		t.Error("reinforcing an unknown id created a finding")
	}
	if _, err := b.Get("F9999"); err == nil {
		t.Error("get unknown id must fail")
	}
}

func TestRetract(t *testing.T) {
	b := New(2)
	id, _ := b.Add("t", "s", "x")
	b.ApplyEvent(Event{Op: EvRetract, ID: id})
	reinforce(b, id)
	if f, _ := b.Get(id); f.Evidence != 1 || f.Status != Retracted {
		t.Errorf("reinforcing a retracted finding changed it: %+v", f)
	}
	if got := b.Search(""); len(got) != 0 {
		t.Errorf("retracted finding still searchable: %+v", got)
	}
	// A new identical statement becomes a fresh finding.
	id2, err := b.Add("t", "s", "x")
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Error("retracted finding reused")
	}
}

func TestSearch(t *testing.T) {
	b := New(3)
	b.Add("diabetes", "gender effect in older diabetics", "olap")
	id2, _ := b.Add("hypertension", "HT-years dip at 70-80", "olap")
	reinforce(b, id2)
	hits := b.Search("hyperten")
	if len(hits) != 1 || hits[0].ID != id2 {
		t.Errorf("search = %+v", hits)
	}
	// Case-insensitive, statement text too.
	if hits := b.Search("GENDER EFFECT"); len(hits) != 1 {
		t.Errorf("statement search = %+v", hits)
	}
	// Empty query returns all, ordered by evidence descending.
	all := b.Search("")
	if len(all) != 2 || all[0].ID != id2 {
		t.Errorf("ordering = %+v", all)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	b := New(2)
	b.now = func() time.Time { return time.Date(2013, 4, 8, 12, 0, 0, 0, time.UTC) }
	id1, _ := b.Add("diabetes", "finding one", "olap")
	reinforce(b, id1)
	b.Add("ecg", "finding two", "mining")
	// The state image round-trips through Snapshot and an EvState apply.
	loaded := New(0)
	loaded.Apply(b.Snapshot())
	if loaded.Len() != 2 || loaded.PromotionThreshold != 2 {
		t.Errorf("loaded Len=%d threshold=%d", loaded.Len(), loaded.PromotionThreshold)
	}
	f, err := loaded.Get(id1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Status != Established || f.Evidence != 2 {
		t.Errorf("loaded finding = %+v", f)
	}
	// Sequence continues after load: new ids do not collide.
	id3, _ := loaded.Add("new", "finding three", "x")
	if id3 == id1 {
		t.Error("id collision after load")
	}
}

func TestConcurrentAccess(t *testing.T) {
	b := New(100)
	id, _ := b.Add("t", "s", "x")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				reinforce(b, id)
				b.Search("t")
			}
		}()
	}
	wg.Wait()
	f, _ := b.Get(id)
	if f.Evidence != 1+8*50 {
		t.Errorf("evidence = %d, want %d", f.Evidence, 1+8*50)
	}
}
