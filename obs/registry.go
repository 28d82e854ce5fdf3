package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// A Registry holds the metrics of one process component (a service, a
// coordinator) and renders them in the Prometheus text exposition
// format. Metrics are created once at construction time through the
// New* constructors; observation methods (Add, Set, Observe) are safe
// for concurrent use with each other and with WriteText, so scrapes
// never block the serving path.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*family
}

// family is one metric family: a name, its HELP/TYPE metadata and the
// collector that renders its samples.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"
	coll collector
}

// collector renders the samples of one family. Implementations must be
// safe for concurrent use with observations.
type collector interface {
	samples() []sample
}

// sample is one exposition line: name suffix (for histogram _bucket /
// _sum / _count), optional label pair, and the value.
type sample struct {
	suffix     string // appended to the family name ("" for plain metrics)
	labelName  string
	labelValue string
	value      float64
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds a family, panicking on duplicates or invalid names —
// both are programmer errors caught by the first scrape in any test.
func (r *Registry) register(name, help, typ string, c collector) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.byName[name] = &family{name: name, help: help, typ: typ, coll: c}
}

// families returns the registered families sorted by name, so the
// exposition is deterministic scrape to scrape.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.byName))
	for _, f := range r.byName {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// NewCounter registers a counter with the registry.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters only grow).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) samples() []sample {
	return []sample{{value: float64(c.v.Load())}}
}

// CounterVec is a counter family partitioned by one label (for example
// solves by engine). Children are created on first use and live for the
// life of the registry.
type CounterVec struct {
	label string

	mu       sync.Mutex
	children map[string]*Counter
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	if !validLabelName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	v := &CounterVec{label: label, children: make(map[string]*Counter)}
	r.register(name, help, "counter", v)
	return v
}

// With returns the child counter for one label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &Counter{}
		v.children[value] = c
	}
	return c
}

func (v *CounterVec) samples() []sample {
	v.mu.Lock()
	defer v.mu.Unlock()
	values := make([]string, 0, len(v.children))
	for val := range v.children {
		values = append(values, val)
	}
	sort.Strings(values)
	out := make([]sample, 0, len(values))
	for _, val := range values {
		out = append(out, sample{labelName: v.label, labelValue: val,
			value: float64(v.children[val].Value())})
	}
	return out
}

// Gauge is an integer metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// NewGauge registers a gauge with the registry.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", g)
	return g
}

// Set stores an absolute value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add applies a delta (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) samples() []sample {
	return []sample{{value: float64(g.v.Load())}}
}

// gaugeFunc evaluates a callback at scrape time — for values another
// data structure already owns (queue depth, cache length).
type gaugeFunc func() float64

func (f gaugeFunc) samples() []sample {
	return []sample{{value: f()}}
}

// NewGaugeFunc registers a gauge whose value is computed by fn at every
// scrape. fn must be safe for concurrent use.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", gaugeFunc(fn))
}

// counterFunc evaluates a callback at scrape time for monotonic values
// another component already owns (for example the solver's
// process-global evaluator counters).
type counterFunc func() float64

func (f counterFunc) samples() []sample {
	return []sample{{value: f()}}
}

// NewCounterFunc registers a counter whose value is computed by fn at
// every scrape. fn must be monotonically non-decreasing and safe for
// concurrent use.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", counterFunc(fn))
}

// Histogram is a cumulative histogram of float64 observations with
// fixed upper bounds, exposed Prometheus-style: one cumulative _bucket
// per bound plus +Inf, _sum and _count. Observations are lock-free
// (atomic per-bucket counters); Quantile estimates percentiles from the
// bucket counts, replacing the service's earlier 512-sample window —
// the estimate covers every observation since start, not a sliding
// sample.
type Histogram struct {
	bounds  []float64      // strictly increasing upper bounds, +Inf implicit
	counts  []atomic.Int64 // len(bounds)+1, non-cumulative per bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram registers a histogram with the given strictly increasing
// bucket upper bounds (+Inf is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	r.register(name, help, "histogram", h)
	return h
}

// ExponentialBuckets returns n bounds starting at start and multiplying
// by factor — the standard shape for latency histograms.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket
// counts by linear interpolation inside the target bucket, like the
// Prometheus histogram_quantile function. It returns 0 with no
// observations; an estimate landing in the +Inf bucket reports the
// highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (h.bounds[i]-lo)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) samples() []sample {
	// Snapshot counts first so the rendered buckets are monotone even
	// while observations land concurrently: _count is derived from the
	// same snapshot, never from the live counter.
	snap := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		snap[i] = h.counts[i].Load()
		total += snap[i]
	}
	out := make([]sample, 0, len(h.bounds)+3)
	var cum int64
	for i, b := range h.bounds {
		cum += snap[i]
		out = append(out, sample{suffix: "_bucket", labelName: "le",
			labelValue: formatFloat(b), value: float64(cum)})
	}
	out = append(out,
		sample{suffix: "_bucket", labelName: "le", labelValue: "+Inf", value: float64(total)},
		sample{suffix: "_sum", value: h.Sum()},
		sample{suffix: "_count", value: float64(total)})
	return out
}
