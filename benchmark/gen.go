package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/flatquery"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// The benchmark's own input generator. The query pools are fixed (they
// are the figure-shaped questions a clinical scientist asks of the DiScRi
// warehouse, so every pool entry can be answered once in warm-up); what
// the seed decides is when requests arrive, which kind each one is, and
// which pool entry or source attendance it uses. Those three decisions
// come from three separate math/rand streams so that changing a rate
// cannot change which queries are drawn.

type kind int

const (
	kindMDX kind = iota
	kindSQL
	kindFlat
)

// request is one read request in both of its forms: the HTTP body the
// end-to-end phases send, and the parsed form the traced pass hands to
// the layers below the server.
type request struct {
	kind kind
	path string
	body []byte

	text string          // MDX or DG-SQL source
	cube cube.Query      // what the MDX lowers to
	flat flatquery.Query // what the /flatquery body decodes to
}

var (
	mdxCols = []cube.AttrRef{core.RefGender, core.RefDiabetes, core.RefExercise, core.RefReflex}
	mdxRows = []cube.AttrRef{core.RefAgeBand10, core.RefAgeBand5, core.RefHTStatus, core.RefFBGBand, core.RefRRVarBand}
	// Slicer members the cohort generator guarantees; index 0 is "unsliced".
	slicers = []struct {
		ref cube.AttrRef
		val string
	}{{}, {core.RefDiabetes, "Yes"}, {core.RefDiabetes, "No"}, {core.RefGender, "F"}, {core.RefGender, "M"}}

	// Additive measures are answered from the aggregate lattice once
	// warm; the distinct patient count never is (cube/lattice.go) and
	// always scans the fact table through the kernel. Two of the three
	// additive measures are averages, which cost more than the count even
	// on a lattice hit, so the median request is an average and does not
	// sit on the boundary between the two costs.
	additiveMeasures = []namedMeasure{
		{"Attendances", cube.MeasureRef{Agg: storage.CountAgg}},
		{"AvgFBG", cube.MeasureRef{Agg: storage.AvgAgg, Column: "FBG"}},
		{"AvgSBP", cube.MeasureRef{Agg: storage.AvgAgg, Column: "LyingSBPAverage"}},
	}
	distinctMeasure = namedMeasure{"PatientCount", core.PatientCountMeasure()}

	flatGroupCols = []string{"Gender", "DiabetesStatus", "FBGBand", "ExerciseFrequency",
		"HypertensionStatus", "ReflexStatus", "AgeBandClinical"}
	flatAggs = []struct {
		sql     string
		agg     string
		measure string
	}{{"count(*)", "count", ""}, {"avg(FBG)", "avg", "FBG"}, {"distinct(PatientID)", "distinct", "PatientID"}}
)

type namedMeasure struct {
	name string
	ref  cube.MeasureRef
}

// mdxPool is every column × row × slicer crosstab over the given measures.
func mdxPool(measures ...namedMeasure) []request {
	var pool []request
	for _, col := range mdxCols {
		for _, row := range mdxRows {
			for _, sl := range slicers {
				for _, m := range measures {
					q := cube.Query{Cols: []cube.AttrRef{col}, Rows: []cube.AttrRef{row}, Measure: m.ref}
					where := fmt.Sprintf("([Measures].[%s])", m.name)
					if sl.val != "" {
						q.Slicers = []cube.Slicer{{Ref: sl.ref, Values: []value.Value{value.Str(sl.val)}}}
						where = fmt.Sprintf("(%s.[%s], [Measures].[%s])", sl.ref, sl.val, m.name)
					}
					text := fmt.Sprintf("SELECT {%s.MEMBERS} ON COLUMNS, {%s.MEMBERS} ON ROWS FROM [MedicalMeasures] WHERE %s",
						col, row, where)
					pool = append(pool, request{kind: kindMDX, path: "/query", body: jsonBody(map[string]any{"mdx": text}), text: text, cube: q})
				}
			}
		}
	}
	return pool
}

// scanPool is the paper's no-warehouse baseline: one- and two-column
// group-bys over the flat table with an optional filter, as DG-SQL text
// and as /flatquery bodies. Every entry scans the whole table.
func scanPool() (sql, flat []request) {
	var groupings [][]string
	for i, a := range flatGroupCols {
		groupings = append(groupings, []string{a})
		for _, b := range flatGroupCols[i+1:] {
			groupings = append(groupings, []string{a, b})
		}
	}
	for _, g := range groupings {
		for _, sl := range slicers {
			if sl.val != "" && (sl.ref.Attr == g[0] || sl.ref.Attr == g[len(g)-1]) {
				continue // filtering on a grouping column is degenerate
			}
			for _, agg := range flatAggs {
				keys := g[0]
				if len(g) == 2 {
					keys += ", " + g[1]
				}
				text := fmt.Sprintf("SELECT %s, %s AS v FROM visits", keys, agg.sql)
				doc := map[string]any{"rows": g[:1], "cols": g[1:], "agg": agg.agg, "measure": agg.measure}
				kindOf, _ := storage.ParseAggKind(agg.agg)
				fq := flatquery.Query{Rows: g[:1], Cols: g[1:], Agg: kindOf, Measure: agg.measure}
				if sl.val != "" {
					text += fmt.Sprintf(" WHERE %s = '%s'", sl.ref.Attr, sl.val)
					doc["filters"] = []map[string]any{{"column": sl.ref.Attr, "values": []string{sl.val}}}
					fq.Filters = []flatquery.Filter{{Column: sl.ref.Attr, Values: []value.Value{value.Str(sl.val)}}}
				}
				text += fmt.Sprintf(" GROUP BY %s ORDER BY %s", keys, keys)
				sql = append(sql, request{kind: kindSQL, path: "/sql", body: jsonBody(map[string]any{"sql": text}), text: text})
				flat = append(flat, request{kind: kindFlat, path: "/flatquery", body: jsonBody(doc), flat: fq})
			}
		}
	}
	return sql, flat
}

func jsonBody(doc map[string]any) []byte {
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err) // maps of strings always encode
	}
	return b
}

// generator holds the three seeded streams.
type generator struct {
	arrivals *rand.Rand
	mix      *rand.Rand
	params   *rand.Rand
}

func newGenerator(seed int64) *generator {
	stream := func(k uint64) *rand.Rand {
		return rand.New(rand.NewSource(int64(uint64(seed) + k*0x9E3779B97F4A7C15)))
	}
	return &generator{arrivals: stream(1), mix: stream(2), params: stream(3)}
}

// poisson draws arrival offsets at the given mean rate until dur.
func (g *generator) poisson(rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	for t := 0.0; ; {
		t += g.arrivals.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// even spaces arrivals 1/rate apart from a random phase: one feed of
// commits, not many independent users.
func (g *generator) even(rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	for t := g.arrivals.Float64() / rate; ; t += 1 / rate {
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// weighted is one pool with its share of the read mix.
type weighted struct {
	share float64
	pool  []request
}

// pick draws n requests. Each pool gets its exact share of the n and is
// dealt out in shuffled rounds, every entry once per round, so that two
// seeds send the same queries equally often and differ in order and
// timing: a median latency then does not move with the luck of the draw.
// The params stream shuffles the pools, the mix stream the sequence.
func (g *generator) pick(mix []weighted, n int) []*request {
	out := make([]*request, 0, n)
	for k, m := range mix {
		count := int(m.share*float64(n) + 0.5)
		if k == len(mix)-1 {
			count = n - len(out)
		}
		var round []int
		for ; count > 0; count-- {
			if len(round) == 0 {
				round = g.params.Perm(len(m.pool))
			}
			out = append(out, &m.pool[round[0]])
			round = round[1:]
		}
	}
	g.mix.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// visits materialises n follow-up attendances: an existing attendance
// re-booked about three months later with a drifted fasting glucose, so
// each commit dirties exactly one existing patient.
func (g *generator) visits(raw *storage.Table, n int) []oltp.Row {
	dateCol, _ := raw.Schema().Lookup("VisitDate")
	fbgCol, _ := raw.Schema().Lookup("FBG")
	rows := make([]oltp.Row, n)
	for i := range rows {
		row := raw.Row(g.params.Intn(raw.Len()))
		if v := row[dateCol]; !v.IsNA() {
			row[dateCol] = value.Time(v.Time().AddDate(0, 3, g.params.Intn(29)-14))
		}
		if v := row[fbgCol]; !v.IsNA() {
			row[fbgCol] = value.Float(math.Round((v.Float()+g.params.NormFloat64()*0.4)*100) / 100)
		}
		rows[i] = row
	}
	return rows
}
