package oltp

import (
	"fmt"
	"sort"
	"time"

	"github.com/ddgms/ddgms/internal/value"
)

func timeUnixNano(n int64) time.Time { return time.Unix(0, n).UTC() }

// index is a secondary hash index over one column, for point lookups.
type index struct {
	col  int
	hash map[value.Value][]RowID
}

func (ix *index) add(v value.Value, id RowID) {
	if v.IsNA() {
		return // missing values are not indexed
	}
	ix.hash[v] = append(ix.hash[v], id)
}

func (ix *index) remove(v value.Value, id RowID) {
	if v.IsNA() {
		return
	}
	ids := ix.hash[v]
	for i, x := range ids {
		if x == id {
			ix.hash[v] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ix.hash[v]) == 0 {
		delete(ix.hash, v)
	}
}

// CreateIndex builds a secondary index over the named column. Existing
// rows are indexed immediately. Creating an index that already exists is
// an error.
func (s *Store) CreateIndex(column string) error {
	col, ok := s.schema.Lookup(column)
	if !ok {
		return fmt.Errorf("oltp: unknown index column %q", column)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.indexes[column]; dup {
		return fmt.Errorf("oltp: index on %q already exists", column)
	}
	ix := &index{col: col, hash: make(map[value.Value][]RowID)}
	for id, vr := range s.rows {
		ix.add(vr.row[col], id)
	}
	s.indexes[column] = ix
	return nil
}

// Lookup returns the RowIDs whose indexed column equals v, in ascending
// order. The column must have an index.
func (s *Store) Lookup(column string, v value.Value) ([]RowID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ix, ok := s.indexes[column]
	if !ok {
		return nil, fmt.Errorf("oltp: no index on %q", column)
	}
	ids := append([]RowID(nil), ix.hash[v]...)
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids, nil
}
