package telemetry

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"strconv"
)

// fmtFloat renders a value the way Prometheus accepts: integers without a
// fraction, everything else in shortest-round-trip form, +Inf as the
// literal Prometheus expects.
func fmtFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus encodes the registry in the Prometheus text exposition
// format (version 0.0.4): one # HELP / # TYPE pair per metric family,
// histograms as cumulative _bucket/_sum/_count series. Metrics are
// emitted sorted by (family, name), so the output is deterministic for a
// fixed set of registrations.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, m := range r.snapshotMetrics() {
		if m.family != lastFamily {
			lastFamily = m.family
			if m.help != "" {
				bw.WriteString("# HELP ")
				bw.WriteString(m.family)
				bw.WriteByte(' ')
				bw.WriteString(m.help)
				bw.WriteByte('\n')
			}
			bw.WriteString("# TYPE ")
			bw.WriteString(m.family)
			bw.WriteByte(' ')
			bw.WriteString(m.kind.String())
			bw.WriteByte('\n')
		}
		switch m.kind {
		case KindHistogram:
			h := m.hist
			counts := h.snapshot()
			cum := int64(0)
			for i, c := range counts {
				cum += c
				le := "+Inf"
				if i < len(h.bounds) {
					le = fmtFloat(h.bounds[i])
				}
				bw.WriteString(m.family)
				bw.WriteString("_bucket{")
				if m.labels != "" {
					bw.WriteString(m.labels)
					bw.WriteByte(',')
				}
				bw.WriteString(`le="`)
				bw.WriteString(le)
				bw.WriteString(`"} `)
				bw.WriteString(strconv.FormatInt(cum, 10))
				bw.WriteByte('\n')
			}
			writeSeries(bw, m.family+"_sum", m.labels, fmtFloat(h.Sum()))
			writeSeries(bw, m.family+"_count", m.labels, strconv.FormatInt(h.Count(), 10))
		default:
			writeSeries(bw, m.family, m.labels, fmtFloat(m.value()))
		}
	}
	return bw.Flush()
}

func writeSeries(bw *bufio.Writer, family, labels, value string) {
	bw.WriteString(family)
	if labels != "" {
		bw.WriteByte('{')
		bw.WriteString(labels)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

// Handler serves the registry over HTTP as Prometheus text. This is what
// messcurved mounts at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
