package oltp

import (
	"testing"
	"testing/quick"

	"github.com/ddgms/ddgms/internal/value"
)

func TestHashIndexLookup(t *testing.T) {
	s := mustOpen(t, "")
	if err := s.CreateIndex("Gender"); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	idF1, _ := tx.Insert(row(1, 5, "F"))
	tx.Insert(row(2, 6, "M"))
	idF2, _ := tx.Insert(row(3, 7, "F"))
	tx.Commit()

	ids, err := s.Lookup("Gender", value.Str("F"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != idF1 || ids[1] != idF2 {
		t.Errorf("Lookup(F) = %v", ids)
	}
	if ids, _ := s.Lookup("Gender", value.Str("X")); len(ids) != 0 {
		t.Errorf("Lookup(X) = %v", ids)
	}
	if _, err := s.Lookup("FBG", value.Float(5)); err == nil {
		t.Error("lookup on unindexed column must fail")
	}
}

func TestIndexMaintainedOnUpdateDelete(t *testing.T) {
	s := mustOpen(t, "")
	s.CreateIndex("Gender")
	tx := s.Begin()
	id, _ := tx.Insert(row(1, 5, "F"))
	tx.Commit()

	tx = s.Begin()
	tx.Update(id, row(1, 5, "M"))
	tx.Commit()
	if ids, _ := s.Lookup("Gender", value.Str("F")); len(ids) != 0 {
		t.Errorf("stale F entry: %v", ids)
	}
	if ids, _ := s.Lookup("Gender", value.Str("M")); len(ids) != 1 {
		t.Errorf("missing M entry: %v", ids)
	}

	tx = s.Begin()
	tx.Delete(id)
	tx.Commit()
	if ids, _ := s.Lookup("Gender", value.Str("M")); len(ids) != 0 {
		t.Errorf("entry survives delete: %v", ids)
	}
}

func TestIndexOnExistingRows(t *testing.T) {
	s := mustOpen(t, "")
	tx := s.Begin()
	tx.Insert(row(1, 5, "F"))
	tx.Insert(row(2, 6, "M"))
	tx.Commit()
	if err := s.CreateIndex("Gender"); err != nil {
		t.Fatal(err)
	}
	if ids, _ := s.Lookup("Gender", value.Str("M")); len(ids) != 1 {
		t.Errorf("index did not backfill: %v", ids)
	}
	if err := s.CreateIndex("Gender"); err == nil {
		t.Error("duplicate index must fail")
	}
	if err := s.CreateIndex("Nope"); err == nil {
		t.Error("index on unknown column must fail")
	}
}

func TestIndexIgnoresNA(t *testing.T) {
	s := mustOpen(t, "")
	s.CreateIndex("FBG")
	tx := s.Begin()
	tx.Insert(Row{value.Int(1), value.NA(), value.Str("F")})
	tx.Insert(row(2, 6.0, "M"))
	tx.Commit()
	if n := len(s.indexes["FBG"].hash); n != 1 {
		t.Errorf("index holds %d values, want 1: NA row leaked into index", n)
	}
	if ids, _ := s.Lookup("FBG", value.NA()); len(ids) != 0 {
		t.Errorf("Lookup(NA) = %v", ids)
	}
}

// Property: for random inserts/deletes, Lookup of each value returns
// exactly the live rows holding it, in ascending RowID order.
func TestQuickIndexConsistency(t *testing.T) {
	f := func(vals []uint8, killMask []bool) bool {
		s, err := Open("", testSchema())
		if err != nil {
			return false
		}
		s.CreateIndex("FBG")
		tx := s.Begin()
		ids := make([]RowID, len(vals))
		for i, v := range vals {
			ids[i], _ = tx.Insert(row(int64(i), float64(v%8), "F"))
		}
		if tx.Commit() != nil {
			return false
		}
		want := map[float64][]RowID{}
		tx = s.Begin()
		for i, v := range vals {
			if i < len(killMask) && killMask[i] {
				if tx.Delete(ids[i]) != nil {
					return false
				}
			} else {
				want[float64(v%8)] = append(want[float64(v%8)], ids[i])
			}
		}
		if tx.Commit() != nil {
			return false
		}
		for v := 0; v < 8; v++ {
			got, err := s.Lookup("FBG", value.Float(float64(v)))
			if err != nil || len(got) != len(want[float64(v)]) {
				return false
			}
			for i, id := range got {
				if id != want[float64(v)][i] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
