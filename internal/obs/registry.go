package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically named cumulative count. The zero value is
// ready to use; every method on a nil *Counter is a no-op, so instrumented
// code pays only a nil check when no registry is attached.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// reset zeroes the counter.
func (c *Counter) reset() {
	if c != nil {
		c.v.Store(0)
	}
}

// Gauge is a last-write-wins instantaneous value.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value set (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) reset() {
	if g != nil {
		g.bits.Store(0)
	}
}

// histSamples bounds the per-histogram sample retention used for quantile
// summaries: beyond it, the ring overwrites the oldest observation, so
// quantiles describe the most recent histSamples observations while
// count/sum/min/max stay exact over the full stream.
const histSamples = 1024

// Histogram accumulates float64 observations: exact count/sum/min/max plus
// a bounded ring of recent samples for quantile summaries.
type Histogram struct {
	mu      sync.Mutex
	count   int64     // guarded by mu
	sum     float64   // guarded by mu
	min     float64   // guarded by mu
	max     float64   // guarded by mu
	samples []float64 // guarded by mu
	next    int       // guarded by mu; ring cursor once len(samples) == histSamples
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if len(h.samples) < histSamples {
		h.samples = append(h.samples, v)
	} else {
		h.samples[h.next] = v
		h.next = (h.next + 1) % histSamples
	}
	h.mu.Unlock()
}

// HistogramSummary is a point-in-time digest of a histogram. Quantiles use
// the nearest-rank definition over the retained samples: P(q) is the
// smallest retained value with at least q·n retained values at or below it.
type HistogramSummary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summary digests the histogram (zero summary on a nil or empty histogram).
func (h *Histogram) Summary() HistogramSummary {
	if h == nil {
		return HistogramSummary{}
	}
	h.mu.Lock()
	s := HistogramSummary{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	sorted := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	if s.Count == 0 {
		return s
	}
	s.Mean = s.Sum / float64(s.Count)
	sort.Float64s(sorted)
	s.P50 = quantile(sorted, 0.50)
	s.P90 = quantile(sorted, 0.90)
	s.P99 = quantile(sorted, 0.99)
	return s
}

func (h *Histogram) reset() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
	h.samples = h.samples[:0]
	h.next = 0
	h.mu.Unlock()
}

// quantile returns the nearest-rank q-quantile of sorted (which must be in
// ascending order); 0 when sorted is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Registry is a named collection of instruments. Instruments are created on
// first use (get-or-create by name) or adopted via the Register* methods so
// code that owns its own instrument storage — the pipeline's Stats()
// counters — can expose them through a registry without double counting.
// Every method on a nil *Registry returns a nil instrument or zero
// snapshot, keeping call sites branch-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a valid no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterCounter adopts an externally owned counter under name, replacing
// any prior registration. No-op on a nil registry or nil counter.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] = c
	r.mu.Unlock()
}

// Snapshot is a consistent-enough point-in-time view of every instrument:
// each instrument is read atomically, though the set is not a global
// atomic cut (concurrent updates may land between reads — fine for
// monitoring). Its JSON form sorts instrument names so scrapes are
// deterministic and diffable: encoding/json writes map keys in sorted
// order.
type Snapshot struct {
	Counters   map[string]int64            `json:"counters"`
	Gauges     map[string]float64          `json:"gauges"`
	Histograms map[string]HistogramSummary `json:"histograms"`
}

// Counter returns the named counter's value in the snapshot (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Snapshot reads every instrument. Safe to call concurrently with updates.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSummary{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	//elrec:orderless copying one map into another is order-independent
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	//elrec:orderless copying one map into another is order-independent
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	//elrec:orderless copying one map into another is order-independent
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.Unlock()
	//elrec:orderless map insertion result is order-independent
	for name, c := range counters {
		s.Counters[name] = c.Value()
	}
	//elrec:orderless map insertion result is order-independent
	for name, g := range gauges {
		s.Gauges[name] = g.Value()
	}
	//elrec:orderless map insertion result is order-independent
	for name, h := range hists {
		s.Histograms[name] = h.Summary()
	}
	return s
}

// Reset zeroes every instrument (the instruments stay registered).
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	//elrec:orderless collecting map values for order-independent reset
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	//elrec:orderless collecting map values for order-independent reset
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	//elrec:orderless collecting map values for order-independent reset
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()
	for _, c := range counters {
		c.reset()
	}
	for _, g := range gauges {
		g.reset()
	}
	for _, h := range hists {
		h.reset()
	}
}
