// Exposition: rendering a Registry as Prometheus text format
// (version 0.0.4 — the format every scraper and promtool understands)
// and as a flat []Sample for the self-scrape loop. Families are sorted
// by name and children by label values, so output is deterministic —
// the property the golden test and the smoke scraper pin.

package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Sample is one exposition sample, flattened: histograms contribute
// their _bucket/_sum/_count series like the text format does. Name and
// Labels concatenated are the canonical series identity — exactly the
// string the self-scrape loop uses as a TSDB series id.
type Sample struct {
	// Name is the sample name (family name, with the _bucket/_sum/
	// _count suffix for histogram components).
	Name string
	// Labels is the rendered label set, `{k="v",...}` with keys sorted,
	// or "" for unlabeled samples.
	Labels string
	// Value is the sample value at gather time.
	Value float64
}

// ID returns the canonical series identity, Name immediately followed
// by Labels.
func (s Sample) ID() string { return s.Name + s.Labels }

// Gather returns every sample in exposition order. The slice is fresh
// per call; values are atomic loads, not a consistent snapshot.
func (r *Registry) Gather() []Sample {
	var out []Sample
	r.eachFamily(func(f *family) {
		f.gather(&out)
	})
	return out
}

// WriteProm renders the registry in Prometheus text format.
func (r *Registry) WriteProm(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 32<<10)
	r.eachFamily(func(f *family) {
		f.writeProm(bw)
	})
	return bw.Flush()
}

// Handler returns the GET /metrics handler. A failed render cannot be
// reported to the scraper (the status line is already committed by the
// first write), so the error is handed to onWriteErr — the server
// counts it into nyquistd_http_write_errors_total — instead of being
// dropped. A nil onWriteErr is allowed for callers with no counter.
func (r *Registry) Handler(onWriteErr func(error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WriteProm(w); err != nil && onWriteErr != nil {
			onWriteErr(err)
		}
	})
}

// Pass counts the gathers begun: a func metric takes a costly snapshot
// once per pass.
func (r *Registry) Pass() uint64 { return r.passes.Load() }

// eachFamily visits families sorted by name, as one gather pass.
func (r *Registry) eachFamily(fn func(*family)) {
	r.passes.Add(1)
	r.mu.RLock()
	names := append([]string(nil), r.names...)
	r.mu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		r.mu.RLock()
		f := r.families[name]
		r.mu.RUnlock()
		if f != nil {
			fn(f)
		}
	}
}

// snapshotChildren returns the family's children with keys sorted, plus
// the func-metric value when this is a function metric.
func (f *family) snapshotChildren() ([]*child, func() float64) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	kids := make([]*child, 0, len(keys))
	for _, k := range keys {
		kids = append(kids, f.children[k])
	}
	return kids, f.fn
}

func (f *family) gather(out *[]Sample) {
	kids, fn := f.snapshotChildren()
	if fn != nil {
		*out = append(*out, Sample{Name: f.name, Value: fn()})
		return
	}
	for _, c := range kids {
		labels := renderLabels(f.labels, c.labelValues, "", "")
		switch f.kind {
		case KindCounter:
			*out = append(*out, Sample{Name: f.name, Labels: labels, Value: float64(c.counter.Value())})
		case KindGauge:
			v := c.gauge.Value()
			if c.fn != nil {
				v = c.fn()
			}
			*out = append(*out, Sample{Name: f.name, Labels: labels, Value: v})
		case KindHistogram:
			h := c.hist
			cum := int64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				*out = append(*out, Sample{
					Name:   f.name + "_bucket",
					Labels: renderLabels(f.labels, c.labelValues, "le", formatFloat(b)),
					Value:  float64(cum),
				})
			}
			count := h.Count()
			*out = append(*out, Sample{Name: f.name + "_bucket",
				Labels: renderLabels(f.labels, c.labelValues, "le", "+Inf"), Value: float64(count)})
			*out = append(*out, Sample{Name: f.name + "_sum", Labels: labels, Value: h.Sum()})
			*out = append(*out, Sample{Name: f.name + "_count", Labels: labels, Value: float64(count)})
		}
	}
}

func (f *family) writeProm(w *bufio.Writer) {
	w.WriteString("# HELP ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(f.help))
	w.WriteString("\n# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(f.kind.String())
	w.WriteByte('\n')

	// One Gather-shaped pass: the flattened samples are exactly the
	// lines the text format wants.
	var samples []Sample
	f.gather(&samples)
	for _, s := range samples {
		w.WriteString(s.Name)
		w.WriteString(s.Labels)
		w.WriteByte(' ')
		w.WriteString(formatFloat(s.Value))
		w.WriteByte('\n')
	}
}

// renderLabels renders `{k="v",...}` with an optional extra pair
// (histogram le) appended; returns "" when there are no pairs at all.
func renderLabels(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(extraValue))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
