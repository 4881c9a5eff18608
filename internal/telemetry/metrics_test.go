package telemetry

import (
	"math"
	"reflect"
	"testing"
)

// TestHistogramBucketBoundaries locks the inclusive-upper ("le")
// semantics: a value equal to a bound lands in that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram("x", LinearBuckets(1, 1, 3)) // bounds 1, 2, 3 (+Inf)
	for _, v := range []float64{0.5, 1.0, 1.0001, 2.0, 3.0, 3.0001, 100} {
		h.Observe(v)
	}
	got := h.Buckets()
	wantCounts := []uint64{2, 2, 1, 2} // le=1: {0.5, 1.0}; le=2: {1.0001, 2.0}; le=3: {3.0}; +Inf: {3.0001, 100}
	for i, w := range wantCounts {
		if got[i].Count != w {
			t.Errorf("bucket %d (le=%g): count %d, want %d", i, got[i].Upper, got[i].Count, w)
		}
	}
	if !math.IsInf(got[3].Upper, 1) {
		t.Errorf("last bucket bound = %g, want +Inf", got[3].Upper)
	}
	if h.Count() != 7 || h.Min() != 0.5 || h.Max() != 100 {
		t.Errorf("count=%d min=%g max=%g", h.Count(), h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram("x", LinearBuckets(1, 1, 3))
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram should report zeros: mean=%g p50=%g min=%g max=%g",
			h.Mean(), h.Quantile(0.5), h.Min(), h.Max())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram("x", LinearBuckets(10, 10, 10)) // 10..100
	for v := 1.0; v <= 100; v++ {
		h.Observe(v)
	}
	for _, tc := range []struct{ q, lo, hi float64 }{
		{0, 1, 1},       // min
		{0.5, 45, 55},   // median ~50
		{0.9, 85, 95},   // p90 ~90
		{1, 100, 100},   // max
		{0.25, 20, 30},  // p25 ~25
		{0.99, 95, 100}, // p99
	} {
		got := h.Quantile(tc.q)
		if got < tc.lo || got > tc.hi {
			t.Errorf("Quantile(%g) = %g, want in [%g, %g]", tc.q, got, tc.lo, tc.hi)
		}
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	h := newHistogram("x", LinearBuckets(10, 10, 4))
	h.Observe(17)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 17 {
			t.Errorf("Quantile(%g) = %g, want 17 (clamped to observed range)", q, got)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	a := newHistogram("x", LinearBuckets(1, 1, 3))
	b := newHistogram("x", LinearBuckets(1, 1, 3))
	a.Observe(0.5)
	b.Observe(2.5)
	b.Observe(9)
	if err := a.MergeFrom(b); err != nil {
		t.Fatalf("MergeFrom: %v", err)
	}
	if a.Count() != 3 || a.Min() != 0.5 || a.Max() != 9 || a.Sum() != 12 {
		t.Errorf("merged: count=%d min=%g max=%g sum=%g", a.Count(), a.Min(), a.Max(), a.Sum())
	}
	c := newHistogram("x", LinearBuckets(2, 2, 3))
	if err := a.MergeFrom(c); err == nil {
		t.Error("merge with different bounds should fail")
	}
	d := newHistogram("x", LinearBuckets(1, 1, 4))
	if err := a.MergeFrom(d); err == nil {
		t.Error("merge with different bucket count should fail")
	}
}

func TestRegistryOrderAndKinds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total")
	g := r.Gauge("b")
	r.Counter("c_total")
	if r.Counter("a_total") != c || r.Gauge("b") != g {
		t.Error("get-or-create should return the same metric")
	}
	cols := r.Columns()
	want := []string{"a_total", "c_total", "b"}
	if len(cols) != 3 || cols[0] != want[0] || cols[1] != want[1] || cols[2] != want[2] {
		t.Errorf("Columns = %v, want %v", cols, want)
	}
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	g.Set(7)
	snap := r.Snapshot()
	if snap[0] != 3 || snap[1] != 0 || snap[2] != 7 {
		t.Errorf("Snapshot = %v", snap)
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch should panic")
		}
	}()
	r.Gauge("a_total")
}

func TestSamplerAndCSV(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total")
	g := r.Gauge("level")
	var updates int
	s := NewSampler(r, 10, func(now float64) {
		updates++
		g.Set(now)
	})
	c.Inc()
	s.Tick(0) // due at t=0
	c.Inc()
	s.Tick(25) // emits t=10 and t=20
	series := s.Finish(30)
	if updates != 4 {
		t.Errorf("updates = %d, want 4", updates)
	}
	if len(series.Samples) != 4 {
		t.Fatalf("samples = %d, want 4", len(series.Samples))
	}
	if series.Samples[1].Time != 10 || series.Samples[1].Values[0] != 2 {
		t.Errorf("sample 1 = %+v", series.Samples[1])
	}
	if !reflect.DeepEqual(series.Columns, []string{"events_total", "level"}) {
		t.Errorf("columns = %q", series.Columns)
	}
	if last := series.Samples[3]; last.Time != 30 || !reflect.DeepEqual(last.Values, []float64{2, 30}) {
		t.Errorf("final sample = %+v", last)
	}
}

func TestRunMetricsRecordAndMerge(t *testing.T) {
	a := NewRunRegistry(1000, 16)
	for _, ev := range []Event{
		{Type: EvGen, Msg: 1},
		{Type: EvDeliver, Msg: 1, Value: 42},
		{Type: EvSleep, Value: 3},
		{Type: EvDrop, Msg: 2, FTD: 0.9, Aux: DropThreshold},
		{Type: EvNone}, // ignored
	} {
		a.Record(ev)
	}
	if a.EventCount(EvGen) != 1 || a.EventCount(EvDeliver) != 1 || a.EventCount(EvNone) != 0 {
		t.Errorf("counts: gen=%g deliver=%g", a.EventCount(EvGen), a.EventCount(EvDeliver))
	}
	if a.DeliveryDelay.Count() != 1 || a.DeliveryDelay.Sum() != 42 {
		t.Errorf("delay hist: n=%d sum=%g", a.DeliveryDelay.Count(), a.DeliveryDelay.Sum())
	}
	if a.FTDAtDrop.Count() != 1 || a.SleepDuration.Count() != 1 {
		t.Error("drop/sleep histograms not fed")
	}

	b := NewRunRegistry(1000, 16)
	b.Record(Event{Type: EvDeliver, Msg: 3, Value: 10})
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.DeliveryDelay.Count() != 2 || a.EventCount(EvDeliver) != 2 {
		t.Errorf("after merge: delay n=%d, deliver=%g", a.DeliveryDelay.Count(), a.EventCount(EvDeliver))
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("Merge(nil): %v", err)
	}
	// Different duration → different delay bounds → merge must fail.
	c := NewRunRegistry(500, 16)
	if err := a.Merge(c); err == nil {
		t.Error("merge across durations should fail")
	}
}

func TestMergeReports(t *testing.T) {
	mk := func(delay float64) *Report {
		m := NewRunRegistry(100, 8)
		m.Record(Event{Type: EvDeliver, Msg: 1, Value: delay})
		return &Report{Run: m, Events: 5}
	}
	agg, err := MergeReports([]*Report{nil, mk(10), {Run: nil}, mk(20)})
	if err != nil {
		t.Fatalf("MergeReports: %v", err)
	}
	if agg == nil || agg.Run.DeliveryDelay.Count() != 2 || agg.Events != 10 {
		t.Errorf("aggregate = %+v", agg)
	}
	empty, err := MergeReports(nil)
	if err != nil || empty != nil {
		t.Errorf("empty aggregate = %v, %v", empty, err)
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %g, want %g", i, got[i], want[i])
		}
	}
}
