// Package obs is the repository's dependency-free observability layer:
// a typed metric registry (counters, gauges, fixed-bucket histograms)
// with Prometheus-text and JSON snapshot renderers, a lightweight
// span/event recorder (Probe) whose output loads in Perfetto or
// chrome://tracing, and structured-logging helpers shared by nobld and
// nobl.
//
// The package sits below every other internal package — core engines,
// the schedule compiler, the network router, the trace store, and the
// nobld job queue all report into it — and therefore imports nothing
// but the standard library.
//
// # Metrics
//
// A Registry holds metric families keyed by name.  Families are created
// lazily on first use and series (one per distinct label set) on first
// observation, so callers with dynamic labels write
//
//	reg.Counter("nobld_requests_total", "...", obs.L("endpoint", ep)).Inc()
//
// on the hot path; the registry memoizes the series behind a mutex and
// the series themselves are lock-free atomics.  Snapshot() produces a
// deterministic, sorted view carrying *numeric* histogram bucket bounds
// alongside their formatted "le" strings, so renderers never re-parse
// formatted bounds (the bug this package replaced in
// internal/service/metrics.go).  WritePrometheus renders the text
// exposition format; the snapshot types are json-taggable for the JSON
// side of the same endpoint.
//
// # Probe
//
// Probe records spans, instants, and counter samples with microsecond
// timestamps relative to the probe's epoch.  Every method is safe on a
// nil *Probe and returns immediately, so instrumented code threads one
// pointer and guards hot paths with a single nil check.
// WriteChromeTrace exports the Chrome trace-event JSON format.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// MetricType identifies a metric family's kind in snapshots.
type MetricType string

// The three metric kinds the registry supports.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Label is one name=value metric label.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
//
//nob:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; negative deltas are ignored to keep the
// counter monotone).
//
//nob:hotpath
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.  It stores float64 bits
// atomically so Set/Add are lock-free.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
//
//nob:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
//
//nob:hotpath
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram.  Observations are counted into
// the first bucket whose upper bound is >= the value; values above every
// bound land in the implicit +Inf bucket.  All updates are atomic.
type Histogram struct {
	bounds  []float64 // sorted ascending, exclusive of +Inf
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
//
//nob:hotpath
func (h *Histogram) Observe(v float64) {
	// Bucket counts are stored non-cumulatively and accumulated at
	// snapshot time, so concurrent observers touch one counter each.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
}

// ObserveSince records the elapsed time since start, in milliseconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(float64(time.Since(start)) / float64(time.Millisecond))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// valueFn is a callback-backed counter or gauge, read at snapshot time.
type valueFn struct{ fn func() float64 }

// family is one metric name: its metadata plus every labeled series.
type family struct {
	name   string
	help   string
	typ    MetricType
	bounds []float64 // histogram families only

	series map[string]*series // keyed by canonical label string
}

type series struct {
	labels []Label
	value  any // *Counter | *Gauge | *Histogram | *valueFn
}

// Registry holds metric families and hands out series.  All methods are
// safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey canonicalizes a label set (sorted by name) into a map key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Name < labels[j].Name })
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
		b.WriteByte(',')
	}
	return b.String()
}

// getFamily returns the family for name, creating it on first use and
// panicking on a type or bounds mismatch with an earlier registration —
// that is a programming error, not a runtime condition.
func (r *Registry) getFamily(name, help string, typ MetricType, bounds []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, bounds: bounds, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, typ, f.typ))
	}
	return f
}

// Counter returns the counter series for name and labels, creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, TypeCounter, nil)
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: labels, value: &Counter{}}
		f.series[key] = s
	}
	return s.value.(*Counter)
}

// Gauge returns the gauge series for name and labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, TypeGauge, nil)
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: labels, value: &Gauge{}}
		f.series[key] = s
	}
	return s.value.(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time — for values owned elsewhere (cache sizes, queue depths) that
// would otherwise need mirroring writes.  Re-registering the same
// name+labels replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.valueFunc(name, help, TypeGauge, fn, labels)
}

// CounterFunc is GaugeFunc for a cumulative value owned elsewhere (a
// store's hit counter): fn must never decrease.  The series renders as a
// counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.valueFunc(name, help, TypeCounter, fn, labels)
}

func (r *Registry) valueFunc(name, help string, typ MetricType, fn func() float64, labels []Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, typ, nil)
	f.series[labelKey(labels)] = &series{labels: labels, value: &valueFn{fn: fn}}
}

// Histogram returns the histogram series for name and labels, creating
// it on first use with the given bucket bounds (sorted copies are taken;
// +Inf is implicit).  Bounds are fixed per family: later calls may pass
// nil to reuse the registered bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	var famBounds []float64
	if len(bounds) > 0 {
		famBounds = append([]float64(nil), bounds...)
		sort.Float64s(famBounds)
	}
	f := r.getFamily(name, help, TypeHistogram, famBounds)
	if f.bounds == nil {
		f.bounds = famBounds
	}
	if len(f.bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q has no bucket bounds", name))
	}
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		h := &Histogram{bounds: f.bounds, buckets: make([]atomic.Int64, len(f.bounds)+1)}
		s = &series{labels: labels, value: h}
		f.series[key] = s
	}
	return s.value.(*Histogram)
}

// Bucket is one cumulative histogram bucket in a snapshot.  Bound is the
// numeric upper bound (math.Inf(1) for the +Inf bucket) and LE its
// Prometheus-formatted string; renderers and sorters use Bound so no
// formatted string is ever re-parsed.
type Bucket struct {
	Bound      float64 `json:"-"`
	LE         string  `json:"le"`
	Cumulative int64   `json:"cumulative"`
}

// SeriesSnapshot is one labeled series in a snapshot.
type SeriesSnapshot struct {
	Labels []Label `json:"labels,omitempty"`
	// Value is the counter or gauge value; unused for histograms.
	Value float64 `json:"value"`
	// Buckets, Count, Sum are set for histogram series only.
	Buckets []Bucket `json:"buckets,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
}

// FamilySnapshot is one metric family in a snapshot.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Type   MetricType       `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is a consistent, deterministically ordered view of a
// registry: families sorted by name, series by canonical label key,
// buckets by ascending numeric bound with +Inf last.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// Family returns the named family snapshot, or nil.
func (s Snapshot) Family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// FormatBound renders a bucket bound the way Prometheus expects its "le"
// label: shortest round-trip decimal, "+Inf" for the overflow bucket.
func FormatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Snapshot captures every family.  Gauge callbacks run outside the
// registry lock is not possible (they are read under it); callbacks must
// therefore not call back into the registry.  The snapshot is fully
// sorted (families by name, series by label key) so every renderer
// downstream is deterministic for free.
//
//nob:deterministic
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{Families: make([]FamilySnapshot, 0, len(r.families))}
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			ss := SeriesSnapshot{Labels: s.labels}
			switch v := s.value.(type) {
			case *Counter:
				ss.Value = float64(v.Value())
			case *Gauge:
				ss.Value = v.Value()
			case *valueFn:
				ss.Value = v.fn()
			case *Histogram:
				ss.Count = v.Count()
				ss.Sum = v.Sum()
				ss.Buckets = make([]Bucket, len(f.bounds)+1)
				var cum int64
				for i, b := range f.bounds {
					cum += v.buckets[i].Load()
					ss.Buckets[i] = Bucket{Bound: b, LE: FormatBound(b), Cumulative: cum}
				}
				cum += v.buckets[len(f.bounds)].Load()
				ss.Buckets[len(f.bounds)] = Bucket{Bound: math.Inf(1), LE: "+Inf", Cumulative: cum}
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}
