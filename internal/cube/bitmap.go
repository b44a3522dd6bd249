// Package cube implements the OLAP engine of the DD-DGMS architecture:
// multidimensional aggregation queries over a star schema, producing cell
// sets that can be sliced, diced, drilled down, rolled up and pivoted —
// the operations behind the paper's Figs 4–6. Bitmap member indexes and a
// partial aggregate lattice accelerate repeated exploration, which is the
// workload of an interactive clinical scientist.
package cube

// Bitmap is a fixed-capacity bitset over fact-row ordinals.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap creates an all-zero bitmap over n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in rows.
func (b *Bitmap) Len() int { return b.n }

// Set marks row i.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// And intersects o into b in place.
func (b *Bitmap) And(o *Bitmap) {
	for i := range b.words {
		if i < len(o.words) {
			b.words[i] &= o.words[i]
		} else {
			b.words[i] = 0
		}
	}
}

// Or unions o into b in place.
func (b *Bitmap) Or(o *Bitmap) {
	for i := range b.words {
		if i < len(o.words) {
			b.words[i] |= o.words[i]
		}
	}
}

// AndNotWords clears every row whose bit is set in words — the
// word-wise form of masking a tombstone set out of a filter bitmap (64
// rows per operation instead of a branch per row).
func (b *Bitmap) AndNotWords(words []uint64) {
	n := len(words)
	if n > len(b.words) {
		n = len(b.words)
	}
	for i := 0; i < n; i++ {
		b.words[i] &^= words[i]
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += popcount(w)
	}
	return n
}

// Fill marks every row.
func (b *Bitmap) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	// Clear the tail beyond n.
	if rem := uint(b.n) & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}

// grow extends b in place to cover n rows, the new ones unset. Words are
// appended into spare capacity, so growing a row at a time is amortised
// O(1).
func (b *Bitmap) grow(n int) {
	for len(b.words) < (n+63)/64 {
		b.words = append(b.words, 0)
	}
	b.n = max(b.n, n)
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	copy(out.words, b.words)
	return out
}

func popcount(x uint64) int {
	// Hacker's Delight population count.
	x -= (x >> 1) & 0x5555555555555555
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((x * 0x0101010101010101) >> 56)
}
