package storage

import (
	"fmt"
	"time"

	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/value"
)

// timeUnix is a tiny indirection so column.go does not import time
// directly at more than one site.
func timeUnix(sec, nsec int64) time.Time { return time.Unix(sec, nsec).UTC() }

// Table is a columnar table: a schema plus one column per field, all the
// same length. Tables are not safe for concurrent mutation; concurrent
// reads are safe once loading is complete.
type Table struct {
	schema *Schema
	cols   []Column
	n      int
}

// NewTable creates an empty table with the given schema.
func NewTable(schema *Schema) (*Table, error) {
	t := &Table{schema: schema, cols: make([]Column, schema.Len())}
	for i := 0; i < schema.Len(); i++ {
		c, err := NewColumn(schema.Field(i).Kind)
		if err != nil {
			return nil, fmt.Errorf("storage: column %q: %w", schema.Field(i).Name, err)
		}
		t.cols[i] = c
	}
	return t, nil
}

// MustTable is like NewTable but panics on error.
func MustTable(schema *Schema) *Table {
	t, err := NewTable(schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// AppendRow adds one row. The slice must have one value per field; each
// value must be NA or match the field kind. On error the table is left
// unchanged.
func (t *Table) AppendRow(row []value.Value) error {
	if len(row) != t.schema.Len() {
		return fmt.Errorf("storage: row has %d values, schema has %d fields", len(row), t.schema.Len())
	}
	for i, v := range row {
		if !v.IsNA() && v.Kind() != t.schema.Field(i).Kind {
			return fmt.Errorf("storage: field %q: %v value in %v column",
				t.schema.Field(i).Name, v.Kind(), t.schema.Field(i).Kind)
		}
	}
	for i, v := range row {
		if err := t.cols[i].Append(v); err != nil {
			// Unreachable after the pre-check, but keep columns consistent.
			panic(fmt.Sprintf("storage: append after validation failed: %v", err))
		}
	}
	t.n++
	return nil
}

// fromRowsBlock is how many rows FromRows copies column by column at a
// time: few enough that the cache lines of the block's rows stay resident
// while every column takes its cells from them.
const fromRowsBlock = 16

// FromRows builds a table over schema from row slices, filling it column
// by column a block of rows at a time. Each row must have one value per
// field, each NA or of the field's kind. The table keeps no reference to
// the rows.
func FromRows[R ~[]value.Value](schema *Schema, rows []R) (*Table, error) {
	t, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		if len(row) != schema.Len() {
			return nil, fmt.Errorf("storage: row %d has %d values, schema has %d fields", i, len(row), schema.Len())
		}
	}
	for _, c := range t.cols {
		c.Grow(len(rows))
	}
	for lo := 0; lo < len(rows); lo += fromRowsBlock {
		block := rows[lo:min(lo+fromRowsBlock, len(rows))]
		for j, c := range t.cols {
			for i, row := range block {
				if err := c.Append(row[j]); err != nil {
					return nil, fmt.Errorf("storage: row %d, field %q: %w", lo+i, schema.Field(j).Name, err)
				}
			}
		}
	}
	t.n = len(rows)
	return t, nil
}

// FromColumns builds an n-row table over schema from existing columns,
// one per field, each of the field's kind and holding n rows. The table
// takes the columns as they are, without copying: a column passed here
// is shared with every other table that holds it.
func FromColumns(schema *Schema, n int, cols []Column) (*Table, error) {
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("storage: %d columns, schema has %d fields", len(cols), schema.Len())
	}
	for j, c := range cols {
		if f := schema.Field(j); c.Kind() != f.Kind || c.Len() != n {
			return nil, fmt.Errorf("storage: column %q: %d %v rows, want %d %v rows", f.Name, c.Len(), c.Kind(), n, f.Kind)
		}
	}
	return &Table{schema: schema, cols: cols, n: n}, nil
}

// Row materialises row i into a fresh slice.
func (t *Table) Row(i int) []value.Value {
	row := make([]value.Value, len(t.cols))
	for j, c := range t.cols {
		row[j] = c.Value(i)
	}
	return row
}

// Value returns the value at row i of the named column.
func (t *Table) Value(i int, name string) (value.Value, error) {
	j, ok := t.schema.Lookup(name)
	if !ok {
		return value.NA(), fmt.Errorf("storage: unknown column %q", name)
	}
	return t.cols[j].Value(i), nil
}

// MustValue is like Value but panics on unknown columns. Intended for
// callers that have already validated the column name.
func (t *Table) MustValue(i int, name string) value.Value {
	v, err := t.Value(i, name)
	if err != nil {
		panic(err)
	}
	return v
}

// Set replaces the value at row i of the named column.
func (t *Table) Set(i int, name string, v value.Value) error {
	j, ok := t.schema.Lookup(name)
	if !ok {
		return fmt.Errorf("storage: unknown column %q", name)
	}
	return t.cols[j].Set(i, v)
}

// Column returns the named column for direct scanning.
func (t *Table) Column(name string) (Column, error) {
	j, ok := t.schema.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("storage: unknown column %q", name)
	}
	return t.cols[j], nil
}

// ColumnAt returns the column at position j.
func (t *Table) ColumnAt(j int) Column { return t.cols[j] }

// Dict returns the cached dictionary-encoded view of the named column
// (see Column.Dict).
func (t *Table) Dict(name string) (*exec.CodedColumn, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	return c.Dict(), nil
}

// AddColumn appends a new field populated by fn(row index). The returned
// error is non-nil if the name already exists or a produced value has the
// wrong kind.
func (t *Table) AddColumn(f Field, fn func(i int) value.Value) error {
	if _, exists := t.schema.Lookup(f.Name); exists {
		return fmt.Errorf("storage: column %q already exists", f.Name)
	}
	col, err := NewColumn(f.Kind)
	if err != nil {
		return err
	}
	for i := 0; i < t.n; i++ {
		v := fn(i)
		if err := col.Append(v); err != nil {
			return fmt.Errorf("storage: populating %q row %d: %w", f.Name, i, err)
		}
	}
	ns, err := NewSchema(append(t.schema.Fields(), f)...)
	if err != nil {
		return err
	}
	t.schema = ns
	t.cols = append(t.cols, col)
	return nil
}

// Clone returns a deep, independent copy of the table, made column by
// column. The copy starts with no cached dictionaries.
func (t *Table) Clone() *Table {
	out := &Table{schema: t.schema, cols: make([]Column, len(t.cols)), n: t.n}
	for j, c := range t.cols {
		out.cols[j] = c.Clone()
	}
	return out
}
