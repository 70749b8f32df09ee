package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments, got %v %v %v", c, g, h)
	}
	c.Add(5)
	c.Inc()
	g.Set(3)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.summary().Count != 0 {
		t.Fatalf("nil instruments must read zero")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot must be empty: %+v", s)
	}
	r.Reset() // must not panic
	r.RegisterCounter("x", &Counter{})
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("steps")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("steps") != c {
		t.Fatalf("get-or-create must return the same instrument")
	}
	g := r.Gauge("queue_depth")
	g.Set(7.5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", got)
	}
	s := r.Snapshot()
	if s.Counter("steps") != 4 || s.Gauges["queue_depth"] != 7.5 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("reset must zero instruments")
	}
}

func TestRegisterCounterAdoptsExternal(t *testing.T) {
	r := NewRegistry()
	var own Counter
	own.Add(11)
	r.RegisterCounter("ps_steps", &own)
	if got := r.Snapshot().Counter("ps_steps"); got != 11 {
		t.Fatalf("adopted counter reads %d, want 11", got)
	}
	own.Add(1)
	if got := r.Counter("ps_steps").Value(); got != 12 {
		t.Fatalf("registry must share the adopted instrument, got %d", got)
	}
}

// TestHistogramQuantilesAgainstSortedReference checks the nearest-rank
// quantiles against an independently sorted copy of the observations.
func TestHistogramQuantilesAgainstSortedReference(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency")
	// A deterministic, deliberately unsorted sequence below the retention
	// cap, so quantiles are exact.
	var vals []float64
	for i := 0; i < 999; i++ {
		vals = append(vals, float64((i*7919)%1000))
	}
	for _, v := range vals {
		h.Observe(v)
	}
	ref := append([]float64(nil), vals...)
	sort.Float64s(ref)
	nearestRank := func(q float64) float64 {
		rank := int(math.Ceil(q * float64(len(ref))))
		return ref[rank-1]
	}
	s := h.summary()
	if s.Count != int64(len(vals)) {
		t.Fatalf("count = %d, want %d", s.Count, len(vals))
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if s.Sum != sum || s.Min != ref[0] || s.Max != ref[len(ref)-1] {
		t.Fatalf("sum/min/max mismatch: %+v", s)
	}
	for _, tc := range []struct {
		q   float64
		got float64
	}{{0.50, s.P50}, {0.90, s.P90}, {0.99, s.P99}} {
		if want := nearestRank(tc.q); tc.got != want {
			t.Fatalf("P%v = %v, want %v", tc.q*100, tc.got, want)
		}
	}
}

func TestHistogramRingKeepsRecentSamples(t *testing.T) {
	h := &Histogram{}
	n := histSamples + 500
	for i := 0; i < n; i++ {
		h.Observe(float64(i))
	}
	s := h.summary()
	if s.Count != int64(n) || s.Min != 0 || s.Max != float64(n-1) {
		t.Fatalf("exact stats must cover the full stream: %+v", s)
	}
	// Quantiles describe the most recent histSamples observations
	// (500..n-1), so the median must sit inside that window.
	if s.P50 < 500 {
		t.Fatalf("P50 = %v, want a value from the retained window [500,%d)", s.P50, n)
	}
}

// TestRegistrySnapshotUpdateRace hammers the registry from concurrent
// writers while snapshotting and resetting; run under -race it proves the
// snapshot path never tears instrument state.
func TestRegistrySnapshotUpdateRace(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const iters = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hits")
			g := r.Gauge("depth")
			h := r.Histogram("lat")
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(w*iters + i))
				// Interleave get-or-create with updates.
				r.Counter("hits").Add(1)
			}
		}(w)
	}
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot()
			if s.Counter("hits") < 0 {
				t.Error("negative counter in snapshot")
				return
			}
			if _, err := json.Marshal(s); err != nil {
				t.Errorf("snapshot marshal: %v", err)
				return
			}
			r.Reset()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()
}

// TestSnapshotJSONIsSortedAndDeterministic checks the scrape contract:
// instrument names appear in ascending order inside every section, and two
// scrapes of identical state are byte-identical regardless of the map
// iteration order underneath.
func TestSnapshotJSONIsSortedAndDeterministic(t *testing.T) {
	r := NewRegistry()
	// Register in deliberately unsorted order.
	for _, name := range []string{"zeta", "alpha", "mid", "beta_2", "beta_1"} {
		r.Counter(name).Add(1)
		r.Gauge(name).Set(2)
		r.Histogram(name).Observe(3)
	}
	first, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for i := 0; i < 20; i++ {
		again, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("scrape %d differs from the first:\n%s\nvs\n%s", i, first, again)
		}
	}
	// Key order inside each section must be ascending.
	want := []string{"alpha", "beta_1", "beta_2", "mid", "zeta"}
	doc := string(first)
	for _, section := range []string{"counters", "gauges", "histograms"} {
		at := strings.Index(doc, `"`+section+`"`)
		if at < 0 {
			t.Fatalf("section %q missing from %s", section, doc)
		}
		last := at
		for _, name := range want {
			idx := strings.Index(doc[last:], `"`+name+`"`)
			if idx < 0 {
				t.Fatalf("section %q: key %q missing or out of order in %s", section, name, doc)
			}
			last += idx + 1
		}
	}
	// And the document must round-trip back into an equal snapshot.
	var back Snapshot
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Counters["zeta"] != 1 || back.Gauges["alpha"] != 2 || back.Histograms["mid"].Count != 1 {
		t.Fatalf("round trip lost values: %+v", back)
	}
}
