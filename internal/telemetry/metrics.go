package telemetry

import (
	"fmt"
	"math"
	"sort"
)

// Counter is a monotonically increasing total.
type Counter struct {
	name string
	v    float64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add increases the counter; negative deltas are ignored.
func (c *Counter) Add(d float64) {
	if d > 0 {
		c.v += d
	}
}

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v }

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is a point-in-time level.
type Gauge struct {
	name string
	v    float64
}

// Set replaces the level.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current level.
func (g *Gauge) Value() float64 { return g.v }

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// Histogram counts observations into fixed buckets with inclusive upper
// bounds (Prometheus "le" semantics); observations above the last bound
// land in an implicit +Inf overflow bucket. Fixed bounds make histograms
// from parallel runs mergeable.
type Histogram struct {
	name   string
	uppers []float64
	counts []uint64 // len(uppers)+1; last = overflow
	sum    float64
	n      uint64
	min    float64
	max    float64
}

// LinearBuckets returns n inclusive upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// ExponentialBuckets returns n inclusive upper bounds start, start*factor, ...
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

func newHistogram(name string, uppers []float64) *Histogram {
	if len(uppers) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(uppers) {
		panic("telemetry: histogram bounds must be sorted")
	}
	return &Histogram{
		name:   name,
		uppers: append([]float64(nil), uppers...),
		counts: make([]uint64, len(uppers)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.uppers, v) // first bound >= v (inclusive upper)
	h.counts[i]++
	h.sum += v
	h.n++
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the average observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest observation, or 0 with no observations.
func (h *Histogram) Min() float64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 with no observations.
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Bucket is one (upper bound, count) pair; Upper is +Inf for the overflow
// bucket.
type Bucket struct {
	Upper float64
	Count uint64
}

// Buckets returns the bucket table including the overflow bucket.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.counts))
	for i, c := range h.counts {
		u := math.Inf(1)
		if i < len(h.uppers) {
			u = h.uppers[i]
		}
		out[i] = Bucket{Upper: u, Count: c}
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// inside the owning bucket, clamped to the observed min/max so sparse
// histograms don't report impossible values. Returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.n)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		lo := h.min
		if i > 0 {
			lo = math.Max(lo, h.uppers[i-1])
		}
		hi := h.max
		if i < len(h.uppers) {
			hi = math.Min(hi, h.uppers[i])
		}
		if hi < lo {
			hi = lo
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.max
}

// MergeFrom folds another histogram with identical bounds into this one.
func (h *Histogram) MergeFrom(o *Histogram) error {
	if len(h.uppers) != len(o.uppers) {
		return fmt.Errorf("telemetry: merge %s: bucket count %d != %d", h.name, len(h.uppers), len(o.uppers))
	}
	for i := range h.uppers {
		if h.uppers[i] != o.uppers[i] {
			return fmt.Errorf("telemetry: merge %s: bound %d differs (%g != %g)", h.name, i, h.uppers[i], o.uppers[i])
		}
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.sum += o.sum
	h.n += o.n
	if o.n > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	return nil
}

// Registry holds a run's named metrics in registration order, so column
// layouts and printed reports are deterministic.
type Registry struct {
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	byName   map[string]interface{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]interface{})}
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter {
	if m, ok := r.byName[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("telemetry: %s already registered as %T", name, m))
		}
		return c
	}
	c := &Counter{name: name}
	r.byName[name] = c
	r.counters = append(r.counters, c)
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if m, ok := r.byName[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("telemetry: %s already registered as %T", name, m))
		}
		return g
	}
	g := &Gauge{name: name}
	r.byName[name] = g
	r.gauges = append(r.gauges, g)
	return g
}

// Histogram returns the named histogram, registering it with the given
// bounds on first use. Re-registering with different bounds panics.
func (r *Registry) Histogram(name string, uppers []float64) *Histogram {
	if m, ok := r.byName[name]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("telemetry: %s already registered as %T", name, m))
		}
		return h
	}
	h := newHistogram(name, uppers)
	r.byName[name] = h
	r.hists = append(r.hists, h)
	return h
}

// Counters lists registered counters in registration order.
func (r *Registry) Counters() []*Counter { return r.counters }

// Gauges lists registered gauges in registration order.
func (r *Registry) Gauges() []*Gauge { return r.gauges }

// Histograms lists registered histograms in registration order.
func (r *Registry) Histograms() []*Histogram { return r.hists }

// Columns names the time-series columns: counters then gauges, in
// registration order.
func (r *Registry) Columns() []string {
	out := make([]string, 0, len(r.counters)+len(r.gauges))
	for _, c := range r.counters {
		out = append(out, c.name)
	}
	for _, g := range r.gauges {
		out = append(out, g.name)
	}
	return out
}

// Snapshot captures the current counter and gauge values in column order.
func (r *Registry) Snapshot() []float64 {
	out := make([]float64, 0, len(r.counters)+len(r.gauges))
	for _, c := range r.counters {
		out = append(out, c.v)
	}
	for _, g := range r.gauges {
		out = append(out, g.v)
	}
	return out
}

// Sample is one time-series row.
type Sample struct {
	Time   float64
	Values []float64
}

// Series is a periodically sampled time series of a registry's counters
// and gauges.
type Series struct {
	Columns []string
	Samples []Sample
}

// Sampler snapshots a registry at a fixed virtual-time interval. Drive it
// from the simulation kernel's post-event hook (sim.SetEventHook) by
// calling Tick with the current virtual time; the update callback runs
// before each snapshot so gauges can be refreshed from live state.
type Sampler struct {
	reg      *Registry
	interval float64
	next     float64
	update   func(now float64)
	series   Series
}

// NewSampler samples reg every interval seconds of virtual time. update
// may be nil.
func NewSampler(reg *Registry, interval float64, update func(now float64)) *Sampler {
	if interval <= 0 {
		panic("telemetry: sampler interval must be positive")
	}
	return &Sampler{reg: reg, interval: interval, update: update, series: Series{Columns: reg.Columns()}}
}

// Tick advances the sampler to virtual time now, emitting every snapshot
// that came due. Call it after each kernel event; repeated calls with the
// same time are cheap.
func (s *Sampler) Tick(now float64) {
	for now >= s.next {
		if s.update != nil {
			s.update(s.next)
		}
		s.series.Columns = s.reg.Columns() // metrics may register lazily
		s.series.Samples = append(s.series.Samples, Sample{Time: s.next, Values: s.reg.Snapshot()})
		s.next += s.interval
	}
}

// Finish takes a final snapshot at end time and returns the series.
func (s *Sampler) Finish(end float64) *Series {
	if s.update != nil {
		s.update(end)
	}
	s.series.Columns = s.reg.Columns()
	s.series.Samples = append(s.series.Samples, Sample{Time: end, Values: s.reg.Snapshot()})
	out := s.series
	return &out
}
