package stats

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// Registry names and enumerates metrics and renders them in the
// Prometheus text exposition format (version 0.0.4), so one GET
// /metrics scrape covers every layer that registered itself — server
// counters, store gauges, oplog histograms, simulated-substrate cost.
//
// Metrics are registered as (family, labels) series backed by load
// functions, so the registry holds no state of its own and a scrape
// always reflects the live counters. A family (one metric name) has
// one type and help string; multiple series of the same family differ
// by labels (e.g. request latency per opcode). Registration panics on
// malformed or conflicting names — metric wiring is programmer error,
// not runtime input.
//
// Registry is safe for concurrent use; the load functions must be too
// (the package's Counter, Gauge and Histogram all are).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// family is one metric name: a type, a help string and its series.
type family struct {
	name, help, typ string
	series          []series
}

// series is one labelled instance of a family.
type series struct {
	labels string // rendered label pairs, e.g. `op="get"`; "" for none
	write  func(buf *bytes.Buffer, name, labels string)
}

// Prometheus metric types used by this registry.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether name is a legal Prometheus metric or label
// name: [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally may not contain
// ':'; we keep one rule and never emit ':' in labels ourselves).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Label renders one label pair for the Register* labels argument,
// escaping the value per the exposition format. Join multiple pairs
// with commas.
func Label(key, value string) string {
	if !validName(key) || strings.Contains(key, ":") {
		panic(fmt.Sprintf("stats: invalid label name %q", key))
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return key + `="` + r.Replace(value) + `"`
}

// register adds one series, creating or extending its family.
func (r *Registry) register(name, labels, help, typ string, write func(*bytes.Buffer, string, string)) {
	if !validName(name) {
		panic(fmt.Sprintf("stats: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("stats: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	for _, s := range f.series {
		if s.labels == labels {
			panic(fmt.Sprintf("stats: duplicate series %s{%s}", name, labels))
		}
	}
	f.series = append(f.series, series{labels: labels, write: write})
}

// RegisterCounter adds a monotonically increasing series whose value
// is read from load at scrape time (use Counter.Load, or any function
// over monotone state). labels is "" or a rendered pair list built
// with Label.
func (r *Registry) RegisterCounter(name, labels, help string, load func() uint64) {
	r.register(name, labels, help, typeCounter, func(buf *bytes.Buffer, n, l string) {
		writeSample(buf, n, l, "", strconv.FormatUint(load(), 10))
	})
}

// RegisterFloatCounter adds a monotonically increasing series with a
// float value (e.g. cumulative seconds).
func (r *Registry) RegisterFloatCounter(name, labels, help string, load func() float64) {
	r.register(name, labels, help, typeCounter, func(buf *bytes.Buffer, n, l string) {
		writeSample(buf, n, l, "", formatFloat(load()))
	})
}

// RegisterGauge adds an up/down series whose value is read from load
// at scrape time.
func (r *Registry) RegisterGauge(name, labels, help string, load func() float64) {
	r.register(name, labels, help, typeGauge, func(buf *bytes.Buffer, n, l string) {
		writeSample(buf, n, l, "", formatFloat(load()))
	})
}

// RegisterHistogram adds a histogram series rendered in the Prometheus
// cumulative-bucket convention (name_bucket{le="…"}, name_sum,
// name_count). scale multiplies bucket bounds and the sum at render
// time — observe nanoseconds, register with scale 1e-9, scrape
// seconds, per the exposition unit conventions. Only non-empty buckets
// are emitted (plus the mandatory +Inf), keeping scrapes compact.
func (r *Registry) RegisterHistogram(name, labels, help string, scale float64, h *Histogram) {
	if scale == 0 {
		scale = 1
	}
	r.register(name, labels, help, typeHistogram, func(buf *bytes.Buffer, n, l string) {
		snap := h.Snapshot()
		var cum uint64
		for i, c := range snap.Buckets {
			if c == 0 {
				continue
			}
			cum += c
			_, hi := BucketBounds(i)
			le := Label("le", formatFloat(float64(hi)*scale))
			writeSample(buf, n+"_bucket", joinLabels(l, le), "", strconv.FormatUint(cum, 10))
		}
		writeSample(buf, n+"_bucket", joinLabels(l, `le="+Inf"`), "", strconv.FormatUint(snap.Count, 10))
		writeSample(buf, n+"_sum", l, "", formatFloat(float64(snap.Sum)*scale))
		writeSample(buf, n+"_count", l, "", strconv.FormatUint(snap.Count, 10))
	})
}

// joinLabels concatenates two rendered label lists, either possibly
// empty.
func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	return a + "," + b
}

// writeSample emits one exposition line: name{labels} value.
func writeSample(buf *bytes.Buffer, name, labels, suffix, value string) {
	buf.WriteString(name)
	buf.WriteString(suffix)
	if labels != "" {
		buf.WriteByte('{')
		buf.WriteString(labels)
		buf.WriteByte('}')
	}
	buf.WriteByte(' ')
	buf.WriteString(value)
	buf.WriteByte('\n')
}

// formatFloat renders a float in the shortest exact form, with the
// exposition spelling for infinities.
func formatFloat(v float64) string {
	switch {
	case v > 1e308*1.7976:
		return "+Inf"
	case v < -1e308*1.7976:
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a help string for a # HELP line.
func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

// WritePrometheus renders every registered family, in registration
// order, to w in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var buf bytes.Buffer
	r.mu.Lock()
	for _, name := range r.order {
		f := r.families[name]
		buf.WriteString("# HELP " + f.name + " " + escapeHelp(f.help) + "\n")
		buf.WriteString("# TYPE " + f.name + " " + f.typ + "\n")
		for _, s := range f.series {
			s.write(&buf, f.name, s.labels)
		}
	}
	r.mu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

// ServeHTTP implements http.Handler: a GET answers with the rendered
// exposition, making a Registry mountable directly at /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if req.Method == http.MethodHead {
		return
	}
	r.WritePrometheus(w)
}
