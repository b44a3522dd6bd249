package exec

import "github.com/ddgms/ddgms/internal/value"

// A row selection is a bitmap over rows [0, n): bit i&63 of word i>>6 is
// set when row i takes part. A nil selection takes every row. Every query
// front-end lowers its filter to one — the cube its slicer bitmap,
// /flatquery and DG-SQL a conjunction of code sets through SelectRows —
// and GroupInput.Rows hands it to the kernel.

// CodeSet is one conjunct of a row selection: row i passes when
// Allowed[Codes[i]] is true. Codes is a coded column's code vector and
// Allowed is indexed by its dictionary codes, covering all of them.
type CodeSet struct {
	Codes   []uint32
	Allowed []bool
}

// InValues is the code set of c's rows whose value is one of vals, by
// value equality (value.Value.Equal): how slicers and /flatquery filters
// resolve to codes. A value the dictionary lacks allows nothing.
func InValues(c *CodedColumn, vals []value.Value) CodeSet {
	want := make(map[value.Value]struct{}, len(vals))
	for _, v := range vals {
		want[v] = struct{}{}
	}
	allowed := make([]bool, c.Card())
	for code, v := range c.values {
		_, allowed[code] = want[v]
	}
	return CodeSet{Codes: c.Codes(), Allowed: allowed}
}

// NotNA is the code set of c's rows that are not missing.
func NotNA(c *CodedColumn) CodeSet {
	allowed := make([]bool, c.Card())
	for code := range allowed {
		allowed[code] = uint32(code) != NACode
	}
	return CodeSet{Codes: c.Codes(), Allowed: allowed}
}

// Selected reports whether the selection rows takes row i.
func Selected(rows []uint64, i int) bool {
	return rows == nil || rows[i>>6]&(1<<(uint(i)&63)) != 0
}

// SelectRows ANDs sets into a selection over rows [0, n), 64 rows per
// word; bits past n are clear. Every set's code vector must cover n rows.
// With no sets it returns nil, the selection of every row.
func SelectRows(n int, sets []CodeSet) []uint64 {
	if len(sets) == 0 {
		return nil
	}
	// Allowed as one 0/1 word per code, so the row loop sets its bit
	// without a branch the filter's selectivity would mispredict.
	bits := make([][]uint64, len(sets))
	for k, s := range sets {
		bits[k] = make([]uint64, len(s.Allowed))
		for code, ok := range s.Allowed {
			if ok {
				bits[k][code] = 1
			}
		}
	}
	words := make([]uint64, (n+63)/64)
	// Words are independent: split them across the kernel's worker pool.
	runWorkers(len(words), workerCount(n, 0), func(_, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			lo := w << 6
			hi := min(lo+64, n)
			word := ^uint64(0) // the first set clears the bits past n
			for k, s := range sets {
				bit := bits[k]
				var m uint64
				for b, code := range s.Codes[lo:hi] {
					m |= bit[code] << uint(b)
				}
				if word &= m; word == 0 {
					break
				}
			}
			words[w] = word
		}
	})
	return words
}
