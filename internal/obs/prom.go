package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4): a # HELP and # TYPE line per
// family, then one sample line per instrument (histograms expand to
// cumulative _bucket series plus _sum and _count). Families appear in
// registration order and labeled children in first-use order, so the
// output is deterministic for a fixed sequence of operations.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range families {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		if len(f.labels) == 0 {
			writeInstrument(bw, f, nil, f.single)
			continue
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]any, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		for i, key := range keys {
			writeInstrument(bw, f, strings.Split(key, "\x00"), children[i])
		}
	}
	return bw.Flush()
}

func writeInstrument(w io.Writer, f *family, labelVals []string, inst any) {
	switch m := inst.(type) {
	case *Counter:
		fmt.Fprintf(w, "%s%s %d\n", f.name, labelSet(f.labels, labelVals, "", 0), m.Value())
	case *Gauge:
		fmt.Fprintf(w, "%s%s %s\n", f.name, labelSet(f.labels, labelVals, "", 0), formatFloat(m.Value()))
	case *Histogram:
		s := m.Snapshot()
		var cum uint64
		for i, c := range s.Counts {
			cum += c
			le := "+Inf"
			if i < len(s.Bounds) {
				le = formatFloat(s.Bounds[i])
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelSet(f.labels, labelVals, "le", le), cum)
		}
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelSet(f.labels, labelVals, "", 0), formatFloat(s.Sum))
		fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelSet(f.labels, labelVals, "", 0), s.Count)
	}
}

// labelSet renders {k="v",...}, appending the extra label (le for
// histogram buckets) when extraKey is non-empty. An empty set renders
// as nothing.
func labelSet(keys, vals []string, extraKey string, extraVal any) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(vals[i]))
		sb.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraKey)
		sb.WriteString(`="`)
		fmt.Fprintf(&sb, "%v", extraVal)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry in the text exposition format — the GET
// /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
