package telemetry

import "testing"

// TestAppendPrometheus pins the exposition format the AppendProm* helpers
// produce for all three metric kinds: TYPE headers, samples, cumulative
// le-labelled buckets ending in +Inf, and _sum/_count.
func TestAppendPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_done").Add(3)
	r.Gauge("queue_depth").Set(2)
	h := r.Histogram("queue_wait_seconds", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(99)

	var buf []byte
	for _, c := range r.Counters() {
		name := "dftserve_" + c.Name() + "_total"
		buf = AppendPromType(buf, name, "counter")
		buf = AppendPromSample(buf, name, nil, c.Value())
	}
	for _, g := range r.Gauges() {
		name := "dftserve_" + g.Name()
		buf = AppendPromType(buf, name, "gauge")
		buf = AppendPromSample(buf, name, nil, g.Value())
	}
	for _, h := range r.Histograms() {
		name := "dftserve_" + h.Name()
		buf = AppendPromType(buf, name, "histogram")
		buf = AppendPromHistogram(buf, name, nil, h)
	}
	want := `# TYPE dftserve_jobs_done_total counter
dftserve_jobs_done_total 3
# TYPE dftserve_queue_depth gauge
dftserve_queue_depth 2
# TYPE dftserve_queue_wait_seconds histogram
dftserve_queue_wait_seconds_bucket{le="0.1"} 1
dftserve_queue_wait_seconds_bucket{le="1"} 3
dftserve_queue_wait_seconds_bucket{le="10"} 3
dftserve_queue_wait_seconds_bucket{le="+Inf"} 4
dftserve_queue_wait_seconds_sum 100.05
dftserve_queue_wait_seconds_count 4
`
	if got := string(buf); got != want {
		t.Fatalf("exposition drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestPromSampleLabels checks label rendering and name sanitization.
func TestPromSampleLabels(t *testing.T) {
	got := string(AppendPromSample(nil, "jobs_submitted_total",
		[]PromLabel{{Name: "tenant", Value: `acme "1"`}}, 7))
	want := "jobs_submitted_total{tenant=\"acme \\\"1\\\"\"} 7\n"
	if got != want {
		t.Fatalf("sample %q, want %q", got, want)
	}
	if n := promName("9bad-name"); n != "_bad_name" {
		t.Fatalf("promName = %q", n)
	}
	if n := promName("fine_name:ok"); n != "fine_name:ok" {
		t.Fatalf("promName mangled a valid name: %q", n)
	}
}
