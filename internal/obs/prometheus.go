package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus encodes the registry in the Prometheus text
// exposition format (version 0.0.4): a # HELP and # TYPE line per
// family followed by its samples, families sorted by name and series
// by label set. Histograms emit cumulative name_bucket{le="..."}
// samples up to the highest populated bucket plus le="+Inf", then
// name_sum and name_count, in seconds (or, for a count histogram, in
// plain counts).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, fam := range r.Snapshot() {
		bw.WriteString("# HELP ")
		bw.WriteString(fam.Name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(fam.Help))
		bw.WriteByte('\n')
		bw.WriteString("# TYPE ")
		bw.WriteString(fam.Name)
		bw.WriteByte(' ')
		bw.WriteString(fam.Kind.String())
		bw.WriteByte('\n')
		for _, s := range fam.Series {
			if s.Hist != nil {
				writeHistogram(bw, fam.Name, s)
				continue
			}
			bw.WriteString(fam.Name)
			writeLabels(bw, s.Labels, "", 0)
			bw.WriteByte(' ')
			bw.WriteString(formatValue(s.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// writeHistogram emits one histogram series in Prometheus histogram
// convention: cumulative buckets keyed by le in the histogram's unit.
func writeHistogram(bw *bufio.Writer, name string, s SeriesPoint) {
	top := -1
	for i, n := range s.Hist.Buckets {
		if n > 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += s.Hist.Buckets[i]
		bw.WriteString(name)
		bw.WriteString("_bucket")
		writeLabels(bw, s.Labels, "le", s.Hist.Scale(BucketBound(i)))
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatUint(cum, 10))
		bw.WriteByte('\n')
	}
	bw.WriteString(name)
	bw.WriteString("_bucket")
	writeLabels(bw, s.Labels, "le", -1) // -1 → +Inf
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(s.Hist.Count, 10))
	bw.WriteByte('\n')
	bw.WriteString(name)
	bw.WriteString("_sum")
	writeLabels(bw, s.Labels, "", 0)
	bw.WriteByte(' ')
	bw.WriteString(formatValue(s.Hist.Scale(s.Hist.Sum)))
	bw.WriteByte('\n')
	bw.WriteString(name)
	bw.WriteString("_count")
	writeLabels(bw, s.Labels, "", 0)
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(s.Hist.Count, 10))
	bw.WriteByte('\n')
}

// writeLabels renders {k="v",...}, optionally with a trailing le
// bound (seconds; negative renders +Inf). Writes nothing when there
// are no labels and no le.
func writeLabels(bw *bufio.Writer, labels []Label, leKey string, le float64) {
	if len(labels) == 0 && leKey == "" {
		return
	}
	bw.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(l.Key)
		bw.WriteString(`="`)
		bw.WriteString(escapeLabel(l.Value))
		bw.WriteByte('"')
	}
	if leKey != "" {
		if len(labels) > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(leKey)
		bw.WriteString(`="`)
		if le < 0 {
			bw.WriteString("+Inf")
		} else {
			bw.WriteString(formatValue(le))
		}
		bw.WriteByte('"')
	}
	bw.WriteByte('}')
}

// formatValue renders a sample value the shortest way that round-trips.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
