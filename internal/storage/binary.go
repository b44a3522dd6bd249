package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"github.com/ddgms/ddgms/internal/value"
)

// Binary persistence format, little-endian with varint lengths:
//
//	magic   "DDGT" (4 bytes)
//	version uvarint (2; any other version is refused)
//	nfields uvarint
//	fields  nfields × { name: uvarint len + bytes, kind: 1 byte }
//	nrows   uvarint
//	columns nfields × column payload
//
// Each column payload is:
//
//	validity bitmap: ceil(nrows/8) bytes, LSB-first
//	values, valid rows only, by kind:
//	  int/bool/time: zig-zag varint
//	  float:         8-byte IEEE-754 bits
//	  string:        dictionary-compressed, the codes bit-packed:
//	      ndict   uvarint   distinct strings, first-appearance order
//	      dict    ndict × { uvarint len + bytes }
//	      width   1 byte    bits per code, ceil(log2(ndict)); 0 when ndict <= 1
//	      codes   ceil(nvalid*width/8) bytes, LSB-first continuous bitstream
const (
	binaryMagic   = "DDGT"
	binaryVersion = 2
)

// WriteBinary serialises the table to the compact binary format.
func (t *Table) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	writeUvarint(bw, binaryVersion)
	writeUvarint(bw, uint64(t.schema.Len()))
	for i := 0; i < t.schema.Len(); i++ {
		f := t.schema.Field(i)
		writeString(bw, f.Name)
		if err := bw.WriteByte(byte(f.Kind)); err != nil {
			return err
		}
	}
	writeUvarint(bw, uint64(t.n))
	for j, c := range t.cols {
		if err := writeColumn(bw, c, t.n); err != nil {
			return fmt.Errorf("storage: writing column %q: %w", t.schema.Field(j).Name, err)
		}
	}
	return bw.Flush()
}

func writeColumn(bw *bufio.Writer, c Column, n int) error {
	// Validity bitmap.
	bitmap := make([]byte, (n+7)/8)
	for i := 0; i < n; i++ {
		if !c.IsNA(i) {
			bitmap[i>>3] |= 1 << (uint(i) & 7)
		}
	}
	if _, err := bw.Write(bitmap); err != nil {
		return err
	}
	if c.Kind() == value.StringKind {
		return writePackedStrings(bw, c, n)
	}
	for i := 0; i < n; i++ {
		if c.IsNA(i) {
			continue
		}
		v := c.Value(i)
		switch c.Kind() {
		case value.IntKind:
			writeVarint(bw, v.Int())
		case value.BoolKind:
			if v.Bool() {
				writeVarint(bw, 1)
			} else {
				writeVarint(bw, 0)
			}
		case value.TimeKind:
			writeVarint(bw, v.Time().UnixNano())
		case value.FloatKind:
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float()))
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported kind %v", c.Kind())
		}
	}
	return nil
}

// writePackedStrings emits the v2 string payload: the dictionary once, in
// first-appearance order, then the valid rows as a bit-packed code stream
// at ceil(log2(ndict)) bits per code.
func writePackedStrings(bw *bufio.Writer, c Column, n int) error {
	index := make(map[string]uint32)
	var dict []string
	codes := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		if c.IsNA(i) {
			continue
		}
		s := c.Value(i).Str()
		code, ok := index[s]
		if !ok {
			code = uint32(len(dict))
			dict = append(dict, s)
			index[s] = code
		}
		codes = append(codes, code)
	}
	writeUvarint(bw, uint64(len(dict)))
	for _, s := range dict {
		writeString(bw, s)
	}
	width := packedStringWidth(len(dict))
	if err := bw.WriteByte(byte(width)); err != nil {
		return err
	}
	var acc uint64
	var nb uint
	for _, code := range codes {
		acc |= uint64(code) << nb
		nb += width
		for nb >= 8 {
			if err := bw.WriteByte(byte(acc)); err != nil {
				return err
			}
			acc >>= 8
			nb -= 8
		}
	}
	if nb > 0 {
		return bw.WriteByte(byte(acc))
	}
	return nil
}

// packedStringWidth is the bit width of a v2 string code: enough bits to
// address the dictionary, zero when one entry (or none) makes every code 0.
func packedStringWidth(ndict int) uint {
	if ndict <= 1 {
		return 0
	}
	return uint(bits.Len(uint(ndict - 1)))
}

// ReadBinary deserialises a table previously written with WriteBinary.
func ReadBinary(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("storage: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("storage: bad magic %q", magic)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("storage: reading version: %w", err)
	}
	if ver != binaryVersion {
		return nil, fmt.Errorf("storage: unsupported version %d", ver)
	}
	nf, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("storage: reading field count: %w", err)
	}
	fields := make([]Field, nf)
	for i := range fields {
		name, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("storage: reading field %d name: %w", i, err)
		}
		kb, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("storage: reading field %d kind: %w", i, err)
		}
		fields[i] = Field{Name: name, Kind: value.Kind(kb)}
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	nrows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("storage: reading row count: %w", err)
	}
	t := MustTable(schema)
	cols := make([][]value.Value, nf)
	for j := range cols {
		col, err := readColumn(br, fields[j].Kind, int(nrows))
		if err != nil {
			return nil, fmt.Errorf("storage: reading column %q: %w", fields[j].Name, err)
		}
		cols[j] = col
	}
	row := make([]value.Value, nf)
	for i := 0; i < int(nrows); i++ {
		for j := range row {
			row[j] = cols[j][i]
		}
		if err := t.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func readColumn(br *bufio.Reader, k value.Kind, n int) ([]value.Value, error) {
	bitmap := make([]byte, (n+7)/8)
	if _, err := io.ReadFull(br, bitmap); err != nil {
		return nil, fmt.Errorf("reading validity bitmap: %w", err)
	}
	if k == value.StringKind {
		return readPackedStrings(br, bitmap, n)
	}
	out := make([]value.Value, n)
	for i := 0; i < n; i++ {
		if bitmap[i>>3]&(1<<(uint(i)&7)) == 0 {
			out[i] = value.NA()
			continue
		}
		switch k {
		case value.IntKind:
			v, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			out[i] = value.Int(v)
		case value.BoolKind:
			v, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			out[i] = value.Bool(v != 0)
		case value.TimeKind:
			v, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			out[i] = value.Time(timeUnix(0, v))
		case value.FloatKind:
			var buf [8]byte
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return nil, err
			}
			out[i] = value.Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[:])))
		default:
			return nil, fmt.Errorf("unsupported kind %v", k)
		}
	}
	return out, nil
}

// readPackedStrings decodes the dictionary-compressed string payload back to per-row values.
// The validity bitmap fixes how many codes the packed stream holds.
func readPackedStrings(br *bufio.Reader, bitmap []byte, n int) ([]value.Value, error) {
	ndict, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("reading string dictionary size: %w", err)
	}
	if ndict > uint64(n) {
		return nil, fmt.Errorf("string dictionary size %d exceeds row count %d", ndict, n)
	}
	dict := make([]value.Value, ndict)
	for c := range dict {
		s, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("reading string dictionary entry %d: %w", c, err)
		}
		dict[c] = value.Str(s)
	}
	wb, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("reading string code width: %w", err)
	}
	width := uint(wb)
	if width != packedStringWidth(int(ndict)) {
		return nil, fmt.Errorf("string code width %d does not match dictionary size %d", width, ndict)
	}
	nvalid := 0
	for i := 0; i < n; i++ {
		if bitmap[i>>3]&(1<<(uint(i)&7)) != 0 {
			nvalid++
		}
	}
	if nvalid > 0 && ndict == 0 {
		return nil, fmt.Errorf("%d valid rows but empty string dictionary", nvalid)
	}
	packed := make([]byte, (nvalid*int(width)+7)/8)
	if _, err := io.ReadFull(br, packed); err != nil {
		return nil, fmt.Errorf("reading packed string codes: %w", err)
	}
	out := make([]value.Value, n)
	var acc uint64
	var nb uint
	next := 0
	mask := uint64(1)<<width - 1
	for i := 0; i < n; i++ {
		if bitmap[i>>3]&(1<<(uint(i)&7)) == 0 {
			out[i] = value.NA()
			continue
		}
		for nb < width {
			acc |= uint64(packed[next]) << nb
			next++
			nb += 8
		}
		code := acc & mask
		acc >>= width
		nb -= width
		if code >= ndict {
			return nil, fmt.Errorf("string code %d out of range (dictionary size %d)", code, ndict)
		}
		out[i] = dict[code]
	}
	return out, nil
}

func writeUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	bw.Write(buf[:n])
}

func writeVarint(bw *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	bw.Write(buf[:n])
}

func writeString(bw *bufio.Writer, s string) {
	writeUvarint(bw, uint64(len(s)))
	bw.WriteString(s)
}

func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	const maxString = 1 << 24
	if n > maxString {
		return "", fmt.Errorf("string length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
