package storage

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteCSV writes the table as CSV with a header row. Values use their
// String rendering; NA renders as the empty string.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.schema.Names()); err != nil {
		return fmt.Errorf("storage: writing CSV header: %w", err)
	}
	rec := make([]string, t.schema.Len())
	for i := 0; i < t.n; i++ {
		for j, c := range t.cols {
			v := c.Value(i)
			if v.IsNA() {
				rec[j] = ""
			} else {
				rec[j] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("storage: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
