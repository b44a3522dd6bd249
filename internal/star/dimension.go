// Package star implements the dimensional data model at the core of the
// DD-DGMS architecture (paper Figs 1 and 3): dimensions composed of
// attributes and drill-down hierarchies, surrogate-keyed member tables, a
// fact table of dimension keys plus numeric measures, a star-schema
// builder and a loader that populates the warehouse from a flat
// (ETL-transformed) table.
//
// The paper's central argument is that this model's plasticity — the
// ability to add and feed back dimensions without restructuring facts —
// is what enables multivariate decision guidance; the feedback API in
// this package implements the closed loop.
package star

import (
	"fmt"
	"strconv"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// Key is a surrogate key into a dimension's member table.
type Key int32

// NoKey marks a fact whose dimension attributes were all missing.
const NoKey Key = -1

// Hierarchy is an ordered list of attribute names from coarsest to finest
// granularity; drill-down moves toward the end, roll-up toward the start.
// Example: the Age hierarchy ["AgeBand10", "AgeBand5"] supports the paper's
// Fig 5 drill-down from 10-year to 5-year age groups.
type Hierarchy struct {
	Name   string
	Levels []string
}

// Finer returns the attribute one level finer than attr, or "" when attr
// is already the finest level or absent from the hierarchy.
func (h Hierarchy) Finer(attr string) string {
	for i, l := range h.Levels {
		if l == attr && i+1 < len(h.Levels) {
			return h.Levels[i+1]
		}
	}
	return ""
}

// Dimension is one subject-area dimension: a surrogate-keyed table of
// member rows over a fixed attribute schema, with optional hierarchies.
type Dimension struct {
	name        string
	schema      *storage.Schema
	hierarchies []Hierarchy
	members     *storage.Table
	lookup      map[string]Key
	keyBuf      []byte // AddMember's scratch member key
}

// NewDimension creates an empty dimension with the given attributes.
func NewDimension(name string, attrs []storage.Field, hierarchies ...Hierarchy) (*Dimension, error) {
	if name == "" {
		return nil, fmt.Errorf("star: dimension needs a name")
	}
	schema, err := storage.NewSchema(attrs...)
	if err != nil {
		return nil, fmt.Errorf("star: dimension %q: %w", name, err)
	}
	for _, h := range hierarchies {
		if len(h.Levels) < 2 {
			return nil, fmt.Errorf("star: dimension %q: hierarchy %q needs >= 2 levels", name, h.Name)
		}
		for _, l := range h.Levels {
			if _, ok := schema.Lookup(l); !ok {
				return nil, fmt.Errorf("star: dimension %q: hierarchy %q references unknown attribute %q", name, h.Name, l)
			}
		}
	}
	tbl, err := storage.NewTable(schema)
	if err != nil {
		return nil, err
	}
	return &Dimension{
		name:        name,
		schema:      schema,
		hierarchies: append([]Hierarchy(nil), hierarchies...),
		members:     tbl,
		lookup:      make(map[string]Key),
	}, nil
}

// Name returns the dimension name.
func (d *Dimension) Name() string { return d.name }

// Schema returns the attribute schema.
func (d *Dimension) Schema() *storage.Schema { return d.schema }

// Hierarchies returns the dimension's hierarchies.
func (d *Dimension) Hierarchies() []Hierarchy {
	return append([]Hierarchy(nil), d.hierarchies...)
}

// Hierarchy returns the named hierarchy.
func (d *Dimension) Hierarchy(name string) (Hierarchy, bool) {
	for _, h := range d.hierarchies {
		if h.Name == name {
			return h, true
		}
	}
	return Hierarchy{}, false
}

// Len reports the number of members.
func (d *Dimension) Len() int { return d.members.Len() }

// appendMemberKey appends the canonical encoding of an attribute tuple
// to buf.
func appendMemberKey(buf []byte, attrs []value.Value) []byte {
	for _, v := range attrs {
		buf = strconv.AppendUint(buf, uint64(v.Kind()), 10)
		buf = append(buf, ':')
		buf = append(buf, v.String()...)
		buf = append(buf, 0)
	}
	return buf
}

// AddMember interns an attribute tuple, returning the existing surrogate
// key when an identical member already exists (the loader relies on this
// dedup to keep dimensions compact). Like every mutation it must not run
// concurrently with another call on the same dimension.
func (d *Dimension) AddMember(attrs []value.Value) (Key, error) {
	if len(attrs) != d.schema.Len() {
		return NoKey, fmt.Errorf("star: dimension %q: member has %d attributes, schema has %d",
			d.name, len(attrs), d.schema.Len())
	}
	d.keyBuf = appendMemberKey(d.keyBuf[:0], attrs)
	if k, ok := d.lookup[string(d.keyBuf)]; ok {
		return k, nil
	}
	if err := d.members.AppendRow(attrs); err != nil {
		return NoKey, fmt.Errorf("star: dimension %q: %w", d.name, err)
	}
	k := Key(d.members.Len() - 1)
	d.lookup[string(d.keyBuf)] = k
	return k, nil
}

// Attr returns one attribute of the member identified by k.
func (d *Dimension) Attr(k Key, attr string) (value.Value, error) {
	if k < 0 || int(k) >= d.members.Len() {
		return value.NA(), fmt.Errorf("star: dimension %q: key %d out of range", d.name, k)
	}
	return d.members.Value(int(k), attr)
}

// HasAttr reports whether the dimension has the named attribute.
func (d *Dimension) HasAttr(attr string) bool {
	_, ok := d.schema.Lookup(attr)
	return ok
}

// AttrKind returns the value kind of an attribute.
func (d *Dimension) AttrKind(attr string) (value.Kind, bool) {
	if j, ok := d.schema.Lookup(attr); ok {
		return d.schema.Field(j).Kind, true
	}
	return value.NAKind, false
}
