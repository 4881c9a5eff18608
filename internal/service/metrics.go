package service

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dftmsn/internal/telemetry"
)

// metricsPrefix namespaces every exported series.
const metricsPrefix = "dftserve_"

// counterNames is the fixed set of service health counters, in exposition
// order. The set is closed at construction so the hot path can increment
// lock-free atomics without ever touching a map under a mutex.
var counterNames = []string{
	"jobs_submitted", "jobs_done", "jobs_cancelled", "jobs_interrupted",
	"jobs_quarantined", "jobs_resumed", "retries",
	"rejected_queue_full", "rejected_quota", "cache_served",
	"stream_requests", "stream_replays",
}

// tenantCounters are the counter families that additionally keep one
// labelled series per tenant. Deliberately few: tenants are unbounded in
// principle, so only admission-facing families carry the label.
var tenantCounters = map[string]bool{
	"jobs_submitted": true,
	"cache_served":   true,
	"rejected_quota": true,
}

// serviceMetrics is the server's metrics plane. Increments hit sharded
// atomics (no shared mutex on the hot path — the old countMetric took a
// global lock per increment); the telemetry.Registry stays the exporter's
// read path: scrapes mirror the atomics into it and render from there, so
// registration order, bucket layout, and exposition all live in one place.
type serviceMetrics struct {
	counters map[string]*atomic.Uint64 // read-only map shape after construction

	tmu    sync.RWMutex
	tenant map[string]map[string]*atomic.Uint64 // family -> tenant -> count

	// hmu guards the registry (not thread-safe) and the histograms.
	// Histogram observations are per-job (twice per job), never per-event,
	// so a mutex there costs nothing measurable.
	hmu       sync.Mutex
	reg       *telemetry.Registry
	queueWait *telemetry.Histogram
	runSecs   *telemetry.Histogram

	gQueueDepth   *telemetry.Gauge
	gQueueCap     *telemetry.Gauge
	gRunning      *telemetry.Gauge
	gCacheEntries *telemetry.Gauge
	gTeeEvents    *telemetry.Gauge
	cCacheHits    *telemetry.Counter
	cCacheMisses  *telemetry.Counter
}

func newServiceMetrics() *serviceMetrics {
	m := &serviceMetrics{
		counters: make(map[string]*atomic.Uint64, len(counterNames)),
		tenant:   make(map[string]map[string]*atomic.Uint64),
		reg:      telemetry.NewRegistry(),
	}
	for _, name := range counterNames {
		m.counters[name] = new(atomic.Uint64)
		m.reg.Counter(name)
	}
	m.cCacheHits = m.reg.Counter("cache_hits")
	m.cCacheMisses = m.reg.Counter("cache_misses")
	m.gQueueDepth = m.reg.Gauge("queue_depth")
	m.gQueueCap = m.reg.Gauge("queue_capacity")
	m.gRunning = m.reg.Gauge("running")
	m.gCacheEntries = m.reg.Gauge("cache_entries")
	m.gTeeEvents = m.reg.Gauge("stream_tee_events")
	// 1 ms .. ~4.4 min in powers of 4: queueing and run times span from
	// cache-warm microbenchmarks to paper-scale sweeps.
	buckets := telemetry.ExponentialBuckets(0.001, 4, 10)
	m.queueWait = m.reg.Histogram("queue_wait_seconds", buckets)
	m.runSecs = m.reg.Histogram("job_run_seconds", buckets)
	return m
}

// count increments one service counter: a single atomic add, safe from any
// goroutine, never contending on a lock.
func (m *serviceMetrics) count(name string) {
	if c, ok := m.counters[name]; ok {
		c.Add(1)
	}
}

// countTenant increments a counter and, for the labelled families, its
// per-tenant series. First sight of a tenant takes the write lock once;
// every later increment is an RLock plus an atomic add.
func (m *serviceMetrics) countTenant(name, tenant string) {
	m.count(name)
	if !tenantCounters[name] {
		return
	}
	m.tmu.RLock()
	a := m.tenant[name][tenant]
	m.tmu.RUnlock()
	if a == nil {
		m.tmu.Lock()
		fam := m.tenant[name]
		if fam == nil {
			fam = make(map[string]*atomic.Uint64)
			m.tenant[name] = fam
		}
		if a = fam[tenant]; a == nil {
			a = new(atomic.Uint64)
			fam[tenant] = a
		}
		m.tmu.Unlock()
	}
	a.Add(1)
}

// observeQueueWait and observeRun feed the latency histograms.
func (m *serviceMetrics) observeQueueWait(d time.Duration) {
	m.hmu.Lock()
	m.queueWait.Observe(d.Seconds())
	m.hmu.Unlock()
}

func (m *serviceMetrics) observeRun(d time.Duration) {
	m.hmu.Lock()
	m.runSecs.Observe(d.Seconds())
	m.hmu.Unlock()
}

// tenantSeries snapshots one family's labelled series, sorted by tenant
// for a deterministic exposition.
func (m *serviceMetrics) tenantSeries(name string) (tenants []string, values []uint64) {
	m.tmu.RLock()
	fam := m.tenant[name]
	tenants = make([]string, 0, len(fam))
	for t := range fam {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	values = make([]uint64, len(tenants))
	for i, t := range tenants {
		values[i] = fam[t].Load()
	}
	m.tmu.RUnlock()
	return tenants, values
}

// gaugeSnapshot carries the point-in-time server state a scrape mirrors
// into the registry's gauges.
type gaugeSnapshot struct {
	queueDepth    int64
	queueCapacity int
	running       int64
	cacheEntries  int
	cacheHits     uint64
	cacheMisses   uint64
	teeEvents     uint64 // events held in the server's stream tees
}

// render writes the Prometheus text exposition (0.0.4). It mirrors the
// atomic counters and the gauge snapshot into the registry, then renders in
// registration order — each counter family as its TYPE header, the
// unlabelled total, and any per-tenant series, grouped as the format
// requires.
func (m *serviceMetrics) render(w http.ResponseWriter, g gaugeSnapshot, build string) {
	m.hmu.Lock()
	defer m.hmu.Unlock()
	for name, a := range m.counters {
		c := m.reg.Counter(name)
		c.Add(float64(a.Load()) - c.Value())
	}
	m.cCacheHits.Add(float64(g.cacheHits) - m.cCacheHits.Value())
	m.cCacheMisses.Add(float64(g.cacheMisses) - m.cCacheMisses.Value())
	m.gQueueDepth.Set(float64(g.queueDepth))
	m.gQueueCap.Set(float64(g.queueCapacity))
	m.gRunning.Set(float64(g.running))
	m.gCacheEntries.Set(float64(g.cacheEntries))
	m.gTeeEvents.Set(float64(g.teeEvents))

	buf := make([]byte, 0, 4096)
	name := metricsPrefix + "build_info"
	buf = telemetry.AppendPromType(buf, name, "gauge")
	buf = telemetry.AppendPromSample(buf, name, []telemetry.PromLabel{{Name: "version", Value: build}}, 1)
	for _, c := range m.reg.Counters() {
		name := metricsPrefix + c.Name() + "_total"
		buf = telemetry.AppendPromType(buf, name, "counter")
		buf = telemetry.AppendPromSample(buf, name, nil, c.Value())
		tenants, values := m.tenantSeries(c.Name())
		for i, t := range tenants {
			buf = telemetry.AppendPromSample(buf, name,
				[]telemetry.PromLabel{{Name: "tenant", Value: t}}, float64(values[i]))
		}
	}
	for _, ga := range m.reg.Gauges() {
		name := metricsPrefix + ga.Name()
		buf = telemetry.AppendPromType(buf, name, "gauge")
		buf = telemetry.AppendPromSample(buf, name, nil, ga.Value())
	}
	for _, h := range m.reg.Histograms() {
		name := metricsPrefix + h.Name()
		buf = telemetry.AppendPromType(buf, name, "histogram")
		buf = telemetry.AppendPromHistogram(buf, name, nil, h)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf)
}
