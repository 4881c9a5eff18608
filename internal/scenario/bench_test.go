package scenario

import (
	"os"
	"testing"

	"dftmsn/internal/core"
	"dftmsn/internal/telemetry"
)

// benchConfig is a small but non-trivial run: enough traffic that the
// per-event recorder cost dominates over setup.
func benchConfig() Config {
	cfg := DefaultConfig(core.SchemeOPT)
	cfg.NumSensors = 20
	cfg.NumSinks = 2
	cfg.DurationSeconds = 400
	cfg.ArrivalMeanSeconds = 60
	cfg.Seed = 11
	return cfg
}

// BenchmarkRunNoTelemetry is the baseline: the telemetry layer off, every
// Record call hitting the allocation-free Nop recorder. Compare against
// BenchmarkRunTelemetry to price the observability layer (make bench-json
// captures both into BENCH_baseline.json).
func BenchmarkRunNoTelemetry(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := New(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunProgress is BenchmarkRunNoTelemetry with the kernel progress
// probe armed (OnProgress set, default 1 s wall-clock throttle, so the
// callback itself essentially never fires inside a benchmark iteration):
// it prices exactly the per-stride probe overhead. Gated by `make
// bench-progress` / CI to stay within 1% of BenchmarkRunNoTelemetry.
func BenchmarkRunProgress(b *testing.B) {
	b.ReportAllocs()
	var sink Progress
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.OnProgress = func(p Progress) { sink = p }
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	_ = sink
}

// largeConfig scales the paper's setup to n sensors while holding its node
// density fixed (one node per 225 m² — 100 nodes on 150×150 m²) and its
// 30 m zone edge, so contact rates stay representative as n grows. The
// horizon is short: these benchmarks price the per-event hot path, not the
// 25 000 s steady state.
func largeConfig(n int, seconds float64, linear bool) Config {
	cfg := DefaultConfig(core.SchemeOPT)
	cfg.NumSensors = n
	cfg.NumSinks = n / 100
	if cfg.NumSinks < 2 {
		cfg.NumSinks = 2
	}
	zones := intSqrtCeil(n * 225 / 900) // (edge/30)² = n·225/900 zones
	if zones < 2 {
		zones = 2
	}
	cfg.ZonesPerSide = zones
	cfg.FieldSize = 30 * float64(zones)
	cfg.DurationSeconds = seconds
	cfg.ArrivalMeanSeconds = 5
	cfg.Seed = 11
	cfg.LinearMedium = linear
	return cfg
}

func intSqrtCeil(n int) int {
	i := 1
	for i*i < n {
		i++
	}
	return i
}

// idleConfig is the low-duty-cycle variant of the 2000-node point: sparse
// traffic and a sleep controller tuned for long idle stretches (TMin 5 s,
// L = 12 idle cycles before sleeping — a deployment that spends most of its
// life asleep, the regime §4 targets). This is where the event-elision
// engine must earn its keep: the lazy arm is required to fire at least 5×
// fewer events and run at least 1.5× faster than the eager control
// (BenchmarkRunLarge2000IdleEager), gated by `make bench-scale`.
func idleConfig(n int, seconds float64, eager bool) Config {
	cfg := largeConfig(n, seconds, false)
	cfg.ArrivalMeanSeconds = 300
	cfg.EagerDecay = eager
	p := core.DefaultParams(core.SchemeOPT)
	p.Sleep.TMin = 5
	p.Sleep.L = 12
	cfg.Params = &p
	return cfg
}

// benchRunLarge is the scale tier: guarded behind DFTMSN_SCALE_BENCH because
// a 2000-node run is far too slow for the CI bench smoke (-benchtime=1x
// would still pay one full run per variant). Run them via `make bench-scale`,
// which also asserts the indexed/linear and lazy/eager speedup ratios with
// benchjson.
func benchRunLarge(b *testing.B, cfg Config) {
	if os.Getenv("DFTMSN_SCALE_BENCH") == "" {
		b.Skip("set DFTMSN_SCALE_BENCH=1 (or use `make bench-scale`) to run the scale tier")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		// Construction is untimed: the scale tier prices the event loop,
		// where the medium's range queries live, not the one-off setup.
		b.StopTimer()
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	// events/run feeds benchjson's regression gate: an elision opportunity
	// silently lost shows up here even when ns/op hides it.
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

func BenchmarkRunLarge500(b *testing.B)       { benchRunLarge(b, largeConfig(500, 60, false)) }
func BenchmarkRunLarge500Linear(b *testing.B) { benchRunLarge(b, largeConfig(500, 60, true)) }
func BenchmarkRunLarge2000(b *testing.B)      { benchRunLarge(b, largeConfig(2000, 30, false)) }
func BenchmarkRunLarge2000Linear(b *testing.B) {
	benchRunLarge(b, largeConfig(2000, 30, true))
}
func BenchmarkRunLarge2000Idle(b *testing.B) { benchRunLarge(b, idleConfig(2000, 30, false)) }
func BenchmarkRunLarge2000IdleEager(b *testing.B) {
	benchRunLarge(b, idleConfig(2000, 30, true))
}

// BenchmarkNewIdle2000 prices construction alone at the 2000-node idle
// point. The scale tier stops its timer around New, so its B/op and
// allocs/op never see construction memory; this benchmark does. One New is
// cheap enough for the regular bench tier, so it is not env-gated:
// bench-json records it and bench-diff gates its B/op and allocs/op.
func BenchmarkNewIdle2000(b *testing.B) {
	cfg := idleConfig(2000, 120, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTelemetry runs the same scenario with the metrics registry,
// the periodic sampler, and an in-memory trace-v2 stream all armed.
func BenchmarkRunTelemetry(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Telemetry = true
		cfg.Recorder = &telemetry.Buffer{}
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
