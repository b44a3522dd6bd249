package dgsql

import (
	"context"
	"fmt"
	"strings"

	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/obs"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// DB resolves table names for the executor.
type DB struct {
	tables map[string]*storage.Table
}

// NewDB creates an empty database.
func NewDB() *DB { return &DB{tables: make(map[string]*storage.Table)} }

// Register attaches a table under a name (case-insensitive).
func (db *DB) Register(name string, t *storage.Table) error {
	key := strings.ToLower(name)
	if _, dup := db.tables[key]; dup {
		return fmt.Errorf("dgsql: table %q already registered", name)
	}
	db.tables[key] = t
	return nil
}

// QueryCtx parses and executes a statement, returning the result table.
// Aggregate scans check ctx cooperatively in the kernel and charge any
// govern.Budget it carries; when ctx carries a trace span, dgsql.parse
// and dgsql.execute are recorded under it.
func (db *DB) QueryCtx(ctx context.Context, src string) (*storage.Table, error) {
	parse := obs.SpanFromContext(ctx).Start("dgsql.parse")
	st, err := Parse(src)
	parse.End()
	if err != nil {
		return nil, err
	}
	return db.ExecuteCtx(ctx, st)
}

// ExecuteCtx runs a parsed statement under a caller context (see
// QueryCtx). Aggregate statements record dgsql.group, and the kernel
// phases beneath it, inside the dgsql.execute span.
func (db *DB) ExecuteCtx(ctx context.Context, st *Stmt) (*storage.Table, error) {
	ctx, exe := obs.StartSpan(ctx, "dgsql.execute")
	defer exe.End()
	t, ok := db.tables[strings.ToLower(st.Table)]
	if !ok {
		return nil, fmt.Errorf("dgsql: unknown table %q", st.Table)
	}

	// Validate referenced columns up front for better errors.
	for _, c := range st.Where {
		if _, ok := t.Schema().Lookup(c.Column); !ok {
			return nil, fmt.Errorf("dgsql: unknown column %q in WHERE", c.Column)
		}
	}
	for _, g := range st.GroupBy {
		if _, ok := t.Schema().Lookup(g); !ok {
			return nil, fmt.Errorf("dgsql: unknown column %q in GROUP BY", g)
		}
	}

	rows, err := whereRows(t, st.Where)
	if err != nil {
		return nil, err
	}

	hasAgg := false
	for _, item := range st.Items {
		if item.IsAgg {
			hasAgg = true
		}
	}

	var out *storage.Table
	switch {
	case hasAgg || len(st.GroupBy) > 0:
		// The WHERE selection is read inside the group-by kernel scan, so
		// the aggregate path never materialises a filtered copy of the
		// table.
		out, err = db.executeAggregate(ctx, st, t, rows)
	default:
		cols := make([]string, len(st.Items))
		for i, item := range st.Items {
			cols[i] = item.Column
		}
		out, err = t.Project(rows, cols...)
		if err != nil {
			return nil, fmt.Errorf("dgsql: %w", err)
		}
		out, err = renameColumns(out, st.Items)
	}
	if err != nil {
		return nil, err
	}

	if len(st.OrderBy) > 0 {
		keys := make([]storage.SortKey, len(st.OrderBy))
		for i, k := range st.OrderBy {
			col := k.Column
			// ORDER BY may reference an alias.
			if _, ok := out.Schema().Lookup(col); !ok {
				return nil, fmt.Errorf("dgsql: unknown ORDER BY column %q", col)
			}
			keys[i] = storage.SortKey{Column: col, Descending: k.Descending}
		}
		out, err = out.Sort(keys...)
		if err != nil {
			return nil, fmt.Errorf("dgsql: %w", err)
		}
	}
	if st.Limit >= 0 && out.Len() > st.Limit {
		limited := storage.MustTable(out.Schema())
		for i := 0; i < st.Limit; i++ {
			if err := limited.AppendRow(out.Row(i)); err != nil {
				return nil, err
			}
		}
		out = limited
	}
	return out, nil
}

// whereRows compiles the WHERE conjunction to a row selection (nil when
// there is none). Each condition is evaluated once per dictionary code of
// its column, NA's code included, so a condition costs O(cardinality)
// evaluations however many rows the table holds, and a row passes when
// its code passes every condition. The first WHERE on a column builds
// and caches that column's dictionary.
func whereRows(t *storage.Table, where []Cond) ([]uint64, error) {
	sets := make([]exec.CodeSet, len(where))
	for k, c := range where {
		dict, err := t.Dict(c.Column)
		if err != nil {
			return nil, fmt.Errorf("dgsql: %w", err)
		}
		allowed := make([]bool, dict.Card())
		for code, v := range dict.Values() {
			allowed[code] = evalCond(v, c)
		}
		sets[k] = exec.CodeSet{Codes: dict.Codes(), Allowed: allowed}
	}
	return exec.SelectRows(t.Len(), sets), nil
}

// executeAggregate handles GROUP BY / aggregate projections over the rows
// the WHERE selection takes (nil: every row), which the kernel scan
// reads.
func (db *DB) executeAggregate(ctx context.Context, st *Stmt, t *storage.Table, rows []uint64) (*storage.Table, error) {
	var aggs []storage.AggSpec
	groupSet := make(map[string]bool, len(st.GroupBy))
	for _, g := range st.GroupBy {
		groupSet[g] = true
	}
	outNames := make([]string, len(st.Items))
	for i, item := range st.Items {
		name := item.As
		if !item.IsAgg {
			if !groupSet[item.Column] {
				return nil, fmt.Errorf("dgsql: column %q must appear in GROUP BY or inside an aggregate", item.Column)
			}
			if name == "" {
				name = item.Column
			}
			outNames[i] = name
			continue
		}
		if name == "" {
			if item.Star {
				name = "count"
			} else {
				name = item.Agg.String() + "_" + item.Column
			}
		}
		spec := storage.AggSpec{Kind: item.Agg, As: name}
		if !item.Star {
			spec.Column = item.Column
		}
		aggs = append(aggs, spec)
		outNames[i] = name
	}
	ctx, groupSp := obs.StartSpan(ctx, "dgsql.group")
	grouped, err := t.GroupBy(ctx, st.GroupBy, aggs, rows)
	groupSp.End()
	if err != nil {
		return nil, fmt.Errorf("dgsql: %w", err)
	}
	// Project into the SELECT order (GroupBy puts keys first, then aggs).
	projected, err := groupedProjection(grouped, st, outNames)
	if err != nil {
		return nil, err
	}
	return projected, nil
}

// groupedProjection reorders/renames the GroupBy output to match the
// SELECT list.
func groupedProjection(grouped *storage.Table, st *Stmt, outNames []string) (*storage.Table, error) {
	srcNames := make([]string, len(st.Items))
	for i, item := range st.Items {
		switch {
		case !item.IsAgg:
			srcNames[i] = item.Column
		default:
			srcNames[i] = outNames[i] // agg column already carries the out name
		}
	}
	proj, err := grouped.Project(nil, srcNames...)
	if err != nil {
		return nil, fmt.Errorf("dgsql: %w", err)
	}
	items := make([]SelectItem, len(st.Items))
	for i := range st.Items {
		items[i] = SelectItem{As: outNames[i], Column: srcNames[i]}
	}
	return renameColumns(proj, items)
}

// renameColumns applies AS aliases by rebuilding the schema.
func renameColumns(t *storage.Table, items []SelectItem) (*storage.Table, error) {
	fields := t.Schema().Fields()
	changed := false
	for i, item := range items {
		name := item.As
		if name == "" || i >= len(fields) || fields[i].Name == name {
			continue
		}
		fields[i].Name = name
		changed = true
	}
	if !changed {
		return t, nil
	}
	schema, err := storage.NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("dgsql: %w", err)
	}
	out := storage.MustTable(schema)
	for i := 0; i < t.Len(); i++ {
		if err := out.AppendRow(t.Row(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evalCond applies one comparison with SQL NULL semantics: any comparison
// against a missing value is false, except explicit "= NULL" / "!= NULL"
// (accepted as IS NULL / IS NOT NULL).
func evalCond(v value.Value, c Cond) bool {
	if c.IsNull {
		if c.Op == "=" {
			return v.IsNA()
		}
		return !v.IsNA()
	}
	if v.IsNA() {
		return false
	}
	lit := c.Literal
	// Numeric coercion so FBG > 7 works against float columns with an int
	// literal.
	if vf, ok := v.AsFloat(); ok {
		if lf, ok2 := lit.AsFloat(); ok2 {
			switch c.Op {
			case "=":
				return vf == lf
			case "!=":
				return vf != lf
			case "<":
				return vf < lf
			case "<=":
				return vf <= lf
			case ">":
				return vf > lf
			case ">=":
				return vf >= lf
			}
			return false
		}
	}
	cmp := v.Compare(lit)
	if v.Kind() != lit.Kind() {
		// Cross-kind comparisons other than numeric are only meaningful
		// for equality.
		switch c.Op {
		case "=":
			return false
		case "!=":
			return true
		}
		return false
	}
	switch c.Op {
	case "=":
		return cmp == 0
	case "!=":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	return false
}
