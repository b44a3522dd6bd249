package exec

import (
	"math/bits"
	"os"
	"sort"
	"strings"

	"github.com/ddgms/ddgms/internal/value"
)

// Encoding identifies the physical layout of a coded column's code
// vector. The dictionary (code -> value table) is shared by all three;
// only the per-row code storage differs.
type Encoding uint8

const (
	// EncFlat stores one uint32 per row — the historical layout and the
	// fallback when nothing compresses.
	EncFlat Encoding = iota
	// EncPacked stores codes bit-packed at ceil(log2(cardinality)) bits,
	// 64/width codes per word so no code straddles a word boundary and
	// decode peels a whole word at a time.
	EncPacked
	// EncRLE stores (run end, code) pairs — per-run work instead of
	// per-row work for sorted or low-churn columns.
	EncRLE
)

// String returns the lower-case encoding name used in metrics labels and
// the DDGMS_FORCE_ENCODING knob.
func (e Encoding) String() string {
	switch e {
	case EncPacked:
		return "packed"
	case EncRLE:
		return "rle"
	}
	return "flat"
}

// ForceEncodingEnv, when set to flat/packed/rle, overrides the
// stats-driven encoding choice for every column built afterwards. CI uses
// it to run the refresh-equivalence soak against each layout.
const ForceEncodingEnv = "DDGMS_FORCE_ENCODING"

func forcedEncoding() (Encoding, bool) {
	switch strings.ToLower(os.Getenv(ForceEncodingEnv)) {
	case "flat":
		return EncFlat, true
	case "packed":
		return EncPacked, true
	case "rle":
		return EncRLE, true
	}
	return EncFlat, false
}

// packWidth is the bit width a dictionary of the given cardinality packs
// at: ceil(log2(card)), minimum 1.
func packWidth(card int) uint {
	w := uint(bits.Len(uint(card - 1)))
	if w == 0 {
		w = 1
	}
	return w
}

// chooseEncoding picks a layout from one stats pass over the codes: RLE
// when runs are long enough that the run table is at least 2x smaller
// than the flat vector (average run length >= 4), else bit-packing when
// the width saves at least 2x (width <= 16), else flat. Tiny columns
// always stay flat — the decode plumbing costs more than it saves.
func chooseEncoding(codes []uint32, card int) Encoding {
	if forced, ok := forcedEncoding(); ok {
		return forced
	}
	n := len(codes)
	if n < 64 {
		return EncFlat
	}
	runs := 1
	for i := 1; i < n; i++ {
		if codes[i] != codes[i-1] {
			runs++
		}
	}
	if runs <= n/4 {
		return EncRLE
	}
	if packWidth(card) <= 16 {
		return EncPacked
	}
	return EncFlat
}

// NewCodedColumn builds a coded column over the given code vector and
// dictionary, choosing the physical encoding with chooseEncoding. It
// takes ownership of both slices.
func NewCodedColumn(codes []uint32, values []value.Value) CodedColumn {
	return encodeAs(chooseEncoding(codes, len(values)), codes, values)
}

func encodeAs(enc Encoding, codes []uint32, values []value.Value) CodedColumn {
	switch enc {
	case EncPacked:
		return PackCodes(codes, values)
	case EncRLE:
		return RLECodes(codes, values)
	}
	return NewFlatColumn(codes, values)
}

// dictionary is the half every encoding shares: the code -> value table
// and the index ExtendCoded interns appended values through.
type dictionary struct {
	values []value.Value
	idx    *dictIndex
}

// newDictionary starts the extend chain of a column built over rows rows.
// values is capped at its length so the chain's first extend reallocates
// instead of writing into capacity some other slice may share.
func newDictionary(values []value.Value, rows int) dictionary {
	return dictionary{values: values[:len(values):len(values)], idx: &dictIndex{rows: rows}}
}

func (d *dictionary) dict() *dictionary { return d }

// Card reports the dictionary cardinality, including the reserved NA
// entry.
func (d *dictionary) Card() int { return len(d.values) }

// Values returns the dictionary (code -> value), capped at its length so
// an append by the caller cannot reach entries a newer header added.
func (d *dictionary) Values() []value.Value { return d.values[:len(d.values):len(d.values)] }

// --- flat ------------------------------------------------------------------

// FlatColumn is the uncompressed layout: one uint32 code per row.
type FlatColumn struct {
	codes []uint32
	dictionary
}

// NewFlatColumn wraps a code vector and dictionary without copying. Both
// are capped at their length (see newDictionary).
func NewFlatColumn(codes []uint32, values []value.Value) *FlatColumn {
	return &FlatColumn{codes: codes[:len(codes):len(codes)], dictionary: newDictionary(values, len(codes))}
}

func (c *FlatColumn) Len() int                { return len(c.codes) }
func (c *FlatColumn) Code(i int) uint32       { return c.codes[i] }
func (c *FlatColumn) Value(i int) value.Value { return c.values[c.codes[i]] }
func (c *FlatColumn) IsNA(i int) bool         { return c.codes[i] == NACode }
func (c *FlatColumn) Encoding() Encoding      { return EncFlat }
func (c *FlatColumn) CodeBytes() int          { return 4 * len(c.codes) }

// AppendCodes appends the codes of rows [lo, hi) to dst.
func (c *FlatColumn) AppendCodes(dst []uint32, lo, hi int) []uint32 {
	return append(dst, c.codes[lo:hi]...)
}

// extend appends codes into the vector's spare capacity.
func (c *FlatColumn) extend(codes []uint32, d dictionary) CodedColumn {
	return &FlatColumn{codes: append(c.codes, codes...), dictionary: d}
}

// --- bit-packed ------------------------------------------------------------

// PackedColumn stores codes at width bits each, 64/width codes per word
// (no straddling), so Code is two shifts and decode is word-at-a-time.
type PackedColumn struct {
	words []uint64
	width uint
	perW  int // codes per word
	n     int
	dictionary
}

// PackCodes bit-packs a flat code vector at ceil(log2(card)) bits.
func PackCodes(codes []uint32, values []value.Value) *PackedColumn {
	width := packWidth(len(values))
	if width > 32 {
		width = 32
	}
	perW := 64 / int(width)
	c := &PackedColumn{
		words:      make([]uint64, (len(codes)+perW-1)/perW),
		width:      width,
		perW:       perW,
		n:          len(codes),
		dictionary: newDictionary(values, len(codes)),
	}
	for i, code := range codes {
		c.words[i/perW] |= uint64(code) << (uint(i%perW) * width)
	}
	return c
}

func (c *PackedColumn) Len() int { return c.n }

func (c *PackedColumn) Code(i int) uint32 {
	return uint32(c.words[i/c.perW] >> (uint(i%c.perW) * c.width) & (1<<c.width - 1))
}

func (c *PackedColumn) Value(i int) value.Value { return c.values[c.Code(i)] }
func (c *PackedColumn) IsNA(i int) bool         { return c.Code(i) == NACode }
func (c *PackedColumn) Encoding() Encoding      { return EncPacked }
func (c *PackedColumn) CodeBytes() int          { return 8 * len(c.words) }

// AppendCodes appends the codes of rows [lo, hi) to dst, extracting a
// whole word of codes per memory load.
func (c *PackedColumn) AppendCodes(dst []uint32, lo, hi int) []uint32 {
	mask := uint64(1)<<c.width - 1
	for i := lo; i < hi; {
		j := i % c.perW
		end := j + (hi - i)
		if end > c.perW {
			end = c.perW
		}
		w := c.words[i/c.perW] >> (uint(j) * c.width)
		for ; j < end; j++ {
			dst = append(dst, uint32(w&mask))
			w >>= c.width
		}
		i += end - i%c.perW
	}
	return dst
}

// extend ORs codes into the last word and appends words after it. The
// bits it sets lie past every older header's length, which masks them
// out. Only when the dictionary outgrows the bit width is the column
// repacked in full, at the wider width — once per doubling of the
// cardinality, so amortised O(1) per row.
func (c *PackedColumn) extend(codes []uint32, d dictionary) CodedColumn {
	if packWidth(len(d.values)) > c.width {
		all := c.AppendCodes(make([]uint32, 0, c.n+len(codes)), 0, c.n)
		p := PackCodes(append(all, codes...), d.values)
		p.dictionary = d
		return p
	}
	words, n := c.words, c.n
	for _, code := range codes {
		if n%c.perW == 0 {
			words = append(words, 0)
		}
		words[n/c.perW] |= uint64(code) << (uint(n%c.perW) * c.width)
		n++
	}
	return &PackedColumn{words: words, width: c.width, perW: c.perW, n: n, dictionary: d}
}

// --- run-length ------------------------------------------------------------

// RLEColumn stores runs of equal codes as (cumulative end row, code)
// pairs. Random access binary-searches the run table; scans walk runs
// directly, which is what the kernel's fused run path exploits. A built
// column's runs are maximal; ExtendCoded starts a new run at each append
// boundary, so two adjacent runs of an extended column may share a code.
type RLEColumn struct {
	ends  []uint32 // exclusive end row of each run, ascending
	codes []uint32 // code of each run
	dictionary
}

// RLECodes run-length-encodes a flat code vector.
func RLECodes(codes []uint32, values []value.Value) *RLEColumn {
	c := &RLEColumn{dictionary: newDictionary(values, len(codes))}
	for i := 0; i < len(codes); {
		j := i + 1
		for j < len(codes) && codes[j] == codes[i] {
			j++
		}
		c.ends = append(c.ends, uint32(j))
		c.codes = append(c.codes, codes[i])
		i = j
	}
	return c
}

func (c *RLEColumn) Len() int {
	if len(c.ends) == 0 {
		return 0
	}
	return int(c.ends[len(c.ends)-1])
}

// Run returns run r as [start, end) plus its code.
func (c *RLEColumn) Run(r int) (start, end int, code uint32) {
	if r > 0 {
		start = int(c.ends[r-1])
	}
	return start, int(c.ends[r]), c.codes[r]
}

// RunIndex returns the run containing row i.
func (c *RLEColumn) RunIndex(i int) int {
	return sort.Search(len(c.ends), func(r int) bool { return c.ends[r] > uint32(i) })
}

func (c *RLEColumn) Code(i int) uint32       { return c.codes[c.RunIndex(i)] }
func (c *RLEColumn) Value(i int) value.Value { return c.values[c.Code(i)] }
func (c *RLEColumn) IsNA(i int) bool         { return c.Code(i) == NACode }
func (c *RLEColumn) Encoding() Encoding      { return EncRLE }
func (c *RLEColumn) CodeBytes() int          { return 8 * len(c.ends) }

// AppendCodes appends the codes of rows [lo, hi) to dst, expanding runs.
func (c *RLEColumn) AppendCodes(dst []uint32, lo, hi int) []uint32 {
	for r := c.RunIndex(lo); lo < hi; r++ {
		_, end, code := c.Run(r)
		if end > hi {
			end = hi
		}
		for ; lo < end; lo++ {
			dst = append(dst, code)
		}
	}
	return dst
}

// extend opens new runs after the last one instead of lengthening it:
// the last run's end is an older header's Len, which must not change.
func (c *RLEColumn) extend(codes []uint32, d dictionary) CodedColumn {
	ends, runCodes := c.ends, c.codes
	first, n := len(ends), uint32(c.Len())
	for _, code := range codes {
		n++
		if len(ends) > first && runCodes[len(runCodes)-1] == code {
			ends[len(ends)-1] = n
			continue
		}
		ends = append(ends, n)
		runCodes = append(runCodes, code)
	}
	return &RLEColumn{ends: ends, codes: runCodes, dictionary: d}
}

// MaterializeCodes returns the full flat code vector of c: the backing
// slice itself for flat columns (callers must not mutate it), a fresh
// decode otherwise. Layers that index codes per row (the flat-scan
// baseline's filter predicates) use this instead of per-row Code calls.
func MaterializeCodes(c CodedColumn) []uint32 {
	if f, ok := c.(*FlatColumn); ok {
		return f.codes[:len(f.codes):len(f.codes)]
	}
	return c.AppendCodes(make([]uint32, 0, c.Len()), 0, c.Len())
}
