package storage

import (
	"context"
	"testing"
	"testing/quick"

	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/value"
)

func visitsTable(t *testing.T) *Table {
	t.Helper()
	tbl := MustTable(patientSchema(t))
	rows := [][]value.Value{
		patientRow(1, "M", 72, true, 1),
		patientRow(1, "M", 73, true, 5),
		patientRow(2, "F", 77, true, 2),
		patientRow(3, "F", 45, false, 3),
		patientRow(4, "M", 45, false, 4),
		patientRow(5, "F", 77, true, 6),
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestProjectSelectedRows(t *testing.T) {
	tbl := visitsTable(t)
	gender, err := tbl.Dict("Gender")
	if err != nil {
		t.Fatal(err)
	}
	males := exec.SelectRows(tbl.Len(), []exec.CodeSet{exec.InValues(gender, []value.Value{value.Str("M")})})
	p, err := tbl.Project(males, "PatientID", "Gender")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("males = %d rows, want 3", p.Len())
	}
	// Selected rows keep their order: patients 1, 1, 4.
	for i, want := range []int64{1, 1, 4} {
		if got := p.MustValue(i, "PatientID").Int(); got != want || p.MustValue(i, "Gender").Str() != "M" {
			t.Errorf("row %d = patient %d %v, want patient %d M", i, got, p.MustValue(i, "Gender"), want)
		}
	}
	none, err := tbl.Project(make([]uint64, 1), "Gender")
	if err != nil || none.Len() != 0 {
		t.Errorf("empty selection: %d rows, %v", none.Len(), err)
	}
}

func TestProject(t *testing.T) {
	tbl := visitsTable(t)
	p, err := tbl.Project(nil, "Gender", "Diabetes")
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema().Len() != 2 || p.Len() != tbl.Len() {
		t.Errorf("projection shape %dx%d", p.Len(), p.Schema().Len())
	}
	if _, err := tbl.Project(nil, "Nope"); err == nil {
		t.Error("Project unknown column must fail")
	}
}

func TestSort(t *testing.T) {
	tbl := visitsTable(t)
	sorted, err := tbl.Sort(SortKey{Column: "Age", Descending: true}, SortKey{Column: "PatientID"})
	if err != nil {
		t.Fatal(err)
	}
	prev := sorted.MustValue(0, "Age").Float()
	for i := 1; i < sorted.Len(); i++ {
		cur := sorted.MustValue(i, "Age").Float()
		if cur > prev {
			t.Fatalf("row %d age %g after %g: not descending", i, cur, prev)
		}
		prev = cur
	}
	// Ties (age 77 and 45) must break by ascending PatientID.
	if sorted.MustValue(0, "PatientID").Int() != 2 || sorted.MustValue(1, "PatientID").Int() != 5 {
		t.Errorf("tie-break order wrong: %v, %v",
			sorted.MustValue(0, "PatientID"), sorted.MustValue(1, "PatientID"))
	}
	if _, err := tbl.Sort(SortKey{Column: "Nope"}); err == nil {
		t.Error("Sort unknown column must fail")
	}
}

func TestGroupByCount(t *testing.T) {
	tbl := visitsTable(t)
	g, err := tbl.GroupBy(context.Background(), []string{"Gender"}, []AggSpec{{Kind: CountAgg, As: "N"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("groups = %d", g.Len())
	}
	// Sorted ascending: F before M.
	if g.MustValue(0, "Gender").Str() != "F" || g.MustValue(0, "N").Int() != 3 {
		t.Errorf("group 0 = %v/%v", g.MustValue(0, "Gender"), g.MustValue(0, "N"))
	}
	if g.MustValue(1, "Gender").Str() != "M" || g.MustValue(1, "N").Int() != 3 {
		t.Errorf("group 1 = %v/%v", g.MustValue(1, "Gender"), g.MustValue(1, "N"))
	}
}

func TestGroupByAggregates(t *testing.T) {
	tbl := visitsTable(t)
	g, err := tbl.GroupBy(context.Background(), []string{"Diabetes"}, []AggSpec{
		{Kind: AvgAgg, Column: "Age", As: "AvgAge"},
		{Kind: MinAgg, Column: "Age", As: "MinAge"},
		{Kind: MaxAgg, Column: "Age", As: "MaxAge"},
		{Kind: SumAgg, Column: "Age", As: "SumAge"},
		{Kind: DistinctAgg, Column: "PatientID", As: "Patients"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// false group: ages 45, 45 → avg 45, 2 distinct patients.
	if g.MustValue(0, "Diabetes").Bool() != false {
		t.Fatal("group order: false must sort first")
	}
	if avg := g.MustValue(0, "AvgAge").Float(); avg != 45 {
		t.Errorf("avg = %g", avg)
	}
	if n := g.MustValue(0, "Patients").Int(); n != 2 {
		t.Errorf("distinct patients = %d", n)
	}
	// true group: ages 72,73,77,77 over 3 distinct patients.
	if n := g.MustValue(1, "Patients").Int(); n != 3 {
		t.Errorf("diabetic distinct patients = %d", n)
	}
	if mn, mx := g.MustValue(1, "MinAge").Float(), g.MustValue(1, "MaxAge").Float(); mn != 72 || mx != 77 {
		t.Errorf("min/max = %g/%g", mn, mx)
	}
	if s := g.MustValue(1, "SumAge").Float(); s != 72+73+77+77 {
		t.Errorf("sum = %g", s)
	}
}

func TestGroupByIgnoresNAMeasures(t *testing.T) {
	tbl := visitsTable(t)
	tbl.Set(0, "Age", value.NA())
	g, err := tbl.GroupBy(context.Background(), []string{"Gender"}, []AggSpec{
		{Kind: CountAgg, Column: "Age", As: "AgeN"},
		{Kind: CountAgg, As: "RowN"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// M group lost one Age observation but keeps three rows.
	if g.MustValue(1, "AgeN").Int() != 2 || g.MustValue(1, "RowN").Int() != 3 {
		t.Errorf("M counts = %v rows %v", g.MustValue(1, "AgeN"), g.MustValue(1, "RowN"))
	}
}

func TestGroupByErrors(t *testing.T) {
	tbl := visitsTable(t)
	if _, err := tbl.GroupBy(context.Background(), []string{"Nope"}, nil, nil); err == nil {
		t.Error("unknown key column must fail")
	}
	if _, err := tbl.GroupBy(context.Background(), []string{"Gender"}, []AggSpec{{Kind: SumAgg}}, nil); err == nil {
		t.Error("sum without column must fail")
	}
	if _, err := tbl.GroupBy(context.Background(), []string{"Gender"}, []AggSpec{{Kind: SumAgg, Column: "Nope"}}, nil); err == nil {
		t.Error("unknown measure column must fail")
	}
}

func TestEmptyGroupAggregatesAreNA(t *testing.T) {
	// A group whose measure is entirely NA yields NA for sum/avg/min/max.
	schema := MustSchema(Field{"K", value.StringKind}, Field{"V", value.FloatKind})
	tbl := MustTable(schema)
	tbl.AppendRow([]value.Value{value.Str("a"), value.NA()})
	g, err := tbl.GroupBy(context.Background(), []string{"K"}, []AggSpec{
		{Kind: SumAgg, Column: "V", As: "S"},
		{Kind: AvgAgg, Column: "V", As: "A"},
		{Kind: MinAgg, Column: "V", As: "Mn"},
		{Kind: MaxAgg, Column: "V", As: "Mx"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"S", "A", "Mn", "Mx"} {
		if v := g.MustValue(0, col); !v.IsNA() {
			t.Errorf("%s = %v, want NA", col, v)
		}
	}
}

func TestDistinct(t *testing.T) {
	tbl := visitsTable(t)
	// A group-by with no aggregates gives the distinct key rows.
	d, err := tbl.GroupBy(context.Background(), []string{"Gender", "Diabetes"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 4 {
		t.Errorf("distinct rows = %d, want 4", d.Len())
	}
	// Sorted: (F,false),(F,true),(M,false),(M,true)
	if d.MustValue(0, "Gender").Str() != "F" || d.MustValue(0, "Diabetes").Bool() {
		t.Errorf("first distinct = %v/%v", d.MustValue(0, "Gender"), d.MustValue(0, "Diabetes"))
	}
}

func TestParseAggKind(t *testing.T) {
	for s, want := range map[string]AggKind{
		"count": CountAgg, "sum": SumAgg, "avg": AvgAgg, "mean": AvgAgg,
		"min": MinAgg, "max": MaxAgg, "distinct": DistinctAgg,
	} {
		got, err := ParseAggKind(s)
		if err != nil || got != want {
			t.Errorf("ParseAggKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAggKind("median"); err == nil {
		t.Error("unknown aggregate must fail")
	}
	if AggKind(42).String() != "AggKind(42)" {
		t.Errorf("unknown AggKind string = %q", AggKind(42).String())
	}
}

// Property: group-by counts always sum to the table length.
func TestQuickGroupCountsSumToLen(t *testing.T) {
	f := func(genders []bool) bool {
		tbl := MustTable(MustSchema(Field{"G", value.StringKind}))
		for _, b := range genders {
			g := "M"
			if b {
				g = "F"
			}
			if err := tbl.AppendRow([]value.Value{value.Str(g)}); err != nil {
				return false
			}
		}
		out, err := tbl.GroupBy(context.Background(), []string{"G"}, []AggSpec{{Kind: CountAgg, As: "N"}}, nil)
		if err != nil {
			return false
		}
		var total int64
		for i := 0; i < out.Len(); i++ {
			total += out.MustValue(i, "N").Int()
		}
		return total == int64(len(genders))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a selection and its complement partition the table's rows.
func TestQuickFilterPartition(t *testing.T) {
	f := func(ages []uint8) bool {
		tbl := MustTable(MustSchema(Field{"A", value.IntKind}))
		for _, a := range ages {
			tbl.AppendRow([]value.Value{value.Int(int64(a))})
		}
		yes := make([]uint64, (tbl.Len()+63)/64)
		no := make([]uint64, len(yes))
		for i := 0; i < tbl.Len(); i++ {
			if tbl.MustValue(i, "A").Int() >= 60 {
				yes[i>>6] |= 1 << (uint(i) & 63)
			} else {
				no[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		py, err1 := tbl.Project(yes, "A")
		pn, err2 := tbl.Project(no, "A")
		return err1 == nil && err2 == nil && py.Len()+pn.Len() == tbl.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sorting is idempotent and preserves row count.
func TestQuickSortIdempotent(t *testing.T) {
	f := func(vals []int16) bool {
		tbl := MustTable(MustSchema(Field{"V", value.IntKind}))
		for _, v := range vals {
			tbl.AppendRow([]value.Value{value.Int(int64(v))})
		}
		s1, err := tbl.Sort(SortKey{Column: "V"})
		if err != nil {
			return false
		}
		s2, err := s1.Sort(SortKey{Column: "V"})
		if err != nil || s1.Len() != len(vals) {
			return false
		}
		for i := 0; i < s1.Len(); i++ {
			if !s1.MustValue(i, "V").Equal(s2.MustValue(i, "V")) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
