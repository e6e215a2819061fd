// Package obs is the observability layer of the BPMS: a
// dependency-free metrics registry (atomic counters, gauges, and
// fixed-bucket latency histograms) rendered in the Prometheus text
// exposition format.
//
// Instruments are handed to the hot paths as pre-resolved handles so
// an observation is a few atomic adds with no map lookups or locks;
// every instrument method is nil-receiver safe, so uninstrumented
// systems pay one predictable branch per site and no clock reads.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The zero-cost disabled
// form is a nil *Counter: all methods are nil-safe.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (must be non-negative to keep the counter monotone).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. A gauge is either counted
// (Set, Add, Value) or, for a fractional quantity such as a duration
// in seconds, set whole with SetFloat; a scrape renders their sum.
type Gauge struct {
	v atomic.Int64
	f atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// SetFloat replaces the value of a fractional gauge.
func (g *Gauge) SetFloat(x float64) {
	if g != nil {
		g.f.Store(math.Float64bits(x))
	}
}

// float is what a scrape renders.
func (g *Gauge) float() float64 {
	return float64(g.v.Load()) + math.Float64frombits(g.f.Load())
}

// DefBuckets are the default latency histogram bounds in seconds,
// spanning 50µs (an in-memory transition) to 5s (a stalled fsync).
var DefBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5,
}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// Observe against a concurrent scrape. Bucket counts are stored
// non-cumulative and summed at render time; the sum is kept in
// nanoseconds so Observe is integer-only. A scrape may see a count
// and sum from slightly different instants — standard for lock-free
// histograms and harmless for rate/quantile math.
type Histogram struct {
	bounds []float64 // upper bounds in seconds, ascending
	counts []atomic.Uint64
	inf    atomic.Uint64
	sumNs  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	s := d.Seconds()
	h.sumNs.Add(int64(d))
	for i, b := range h.bounds {
		if s <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.inf.Add(1)
}

// Start returns the observation start time, or the zero time on a nil
// (disabled) histogram so the site skips the clock read entirely.
func (h *Histogram) Start() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// Since observes the elapsed time from a Start, and is a no-op for
// the disabled form (nil receiver or zero start).
func (h *Histogram) Since(t0 time.Time) {
	if h == nil || t0.IsZero() {
		return
	}
	h.Observe(time.Since(t0))
}

// Snapshot returns the bucket upper bounds, per-bucket cumulative
// counts (last entry is the +Inf bucket == total count), the sum in
// seconds, and the total count.
func (h *Histogram) Snapshot() (bounds []float64, cumulative []uint64, sum float64, count uint64) {
	if h == nil {
		return nil, nil, 0, 0
	}
	bounds = h.bounds
	cumulative = make([]uint64, len(h.bounds)+1)
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		cumulative[i] = c
	}
	c += h.inf.Load()
	cumulative[len(cumulative)-1] = c
	return bounds, cumulative, float64(h.sumNs.Load()) / float64(time.Second), c
}

// metricKind tags a family for `# TYPE` rendering.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one labelled instance of a family.
type series struct {
	labels string // rendered `k="v",k2="v2"` (no braces), "" for unlabelled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric with a help line, a type, and a set of
// labelled series.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
	order  []string // insertion order of label keys, for stable render
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Handle resolution (Counter, Gauge,
// Histogram) takes a lock; the returned handles are lock-free.
type Registry struct {
	mu       sync.Mutex
	fams     []*family
	byName   map[string]*family
	samplers []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// labelString renders alternating key/value pairs into the canonical
// `k="v"` form. Values are escaped per the exposition format.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key/value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// fam returns (creating if needed) the named family, checking that
// redeclarations agree on the kind.
func (r *Registry) fam(name, help string, kind metricKind, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s redeclared as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, buckets: buckets, series: map[string]*series{}}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

func (f *family) get(labels []string) *series {
	key := labelString(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labels: key}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.buckets)
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter returns the counter series for name with the given label
// pairs, registering the family on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.fam(name, help, kindCounter, nil).get(labels).c
}

// Gauge returns the gauge series for name with the given label pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.fam(name, help, kindGauge, nil).get(labels).g
}

// Histogram returns the histogram series for name with the given
// label pairs. buckets are upper bounds in seconds (nil = DefBuckets);
// only the first registration's buckets apply.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.fam(name, help, kindHistogram, buckets).get(labels).h
}

// AddSampler registers a function run at the start of every scrape,
// before rendering — the place to refresh gauges whose value is read
// from subsystem state (queue depths, per-state item counts) rather
// than maintained on the hot path.
func (r *Registry) AddSampler(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samplers = append(r.samplers, fn)
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}

// WritePrometheus runs the samplers and renders every family in the
// text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	samplers := make([]func(), len(r.samplers))
	copy(samplers, r.samplers)
	r.mu.Unlock()

	// Samplers run outside the lock (they read subsystem state) and
	// BEFORE the family snapshot: a gauge a sampler creates lazily on
	// its first refresh must render in this same scrape.
	for _, fn := range samplers {
		fn()
	}

	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.Lock()
		keys := make([]string, len(f.order))
		copy(keys, f.order)
		rows := make([]*series, 0, len(keys))
		for _, k := range keys {
			rows = append(rows, f.series[k])
		}
		f.mu.Unlock()
		for _, s := range rows {
			switch f.kind {
			case kindCounter:
				writeSample(&b, f.name, s.labels, "", float64(s.c.Value()))
			case kindGauge:
				writeSample(&b, f.name, s.labels, "", s.g.float())
			case kindHistogram:
				bounds, cum, sum, count := s.h.Snapshot()
				for i, ub := range bounds {
					writeSample(&b, f.name+"_bucket", s.labels, `le="`+formatFloat(ub)+`"`, float64(cum[i]))
				}
				writeSample(&b, f.name+"_bucket", s.labels, `le="+Inf"`, float64(count))
				writeSample(&b, f.name+"_sum", s.labels, "", sum)
				writeSample(&b, f.name+"_count", s.labels, "", float64(count))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeSample renders one `name{labels} value` line. extra is an
// additional pre-rendered label (the histogram `le`).
func writeSample(b *strings.Builder, name, labels, extra string, v float64) {
	b.WriteString(name)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}
