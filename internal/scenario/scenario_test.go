package scenario

import (
	"reflect"
	"strings"
	"testing"

	"dftmsn/internal/core"
	"dftmsn/internal/energy"
	"dftmsn/internal/faults"
	"dftmsn/internal/geo"
	"dftmsn/internal/telemetry"
)

// quickConfig returns a small, fast scenario for tests.
func quickConfig(scheme core.Scheme) Config {
	cfg := DefaultConfig(scheme)
	cfg.NumSensors = 20
	cfg.NumSinks = 2
	cfg.DurationSeconds = 600
	cfg.ArrivalMeanSeconds = 60
	cfg.Seed = 11
	return cfg
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(core.SchemeOPT)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumSensors != 100 || cfg.NumSinks != 3 {
		t.Errorf("population %d/%d, want 100/3", cfg.NumSensors, cfg.NumSinks)
	}
	if cfg.FieldSize != 150 || cfg.ZonesPerSide != 5 {
		t.Errorf("field %v/%d, want 150/5", cfg.FieldSize, cfg.ZonesPerSide)
	}
	if cfg.MaxSpeed != 5 || cfg.ExitProb != 0.2 {
		t.Errorf("mobility %v/%v, want 5/0.2", cfg.MaxSpeed, cfg.ExitProb)
	}
	if cfg.RangeM != 10 || cfg.BitrateBps != 10_000 {
		t.Errorf("radio %v/%v, want 10/10000", cfg.RangeM, cfg.BitrateBps)
	}
	if cfg.ControlBits != 50 || cfg.DataBits != 1000 {
		t.Errorf("sizes %d/%d, want 50/1000", cfg.ControlBits, cfg.DataBits)
	}
	if cfg.QueueCapacity != 200 || cfg.ArrivalMeanSeconds != 120 {
		t.Errorf("queue/traffic %d/%v, want 200/120", cfg.QueueCapacity, cfg.ArrivalMeanSeconds)
	}
	if cfg.DurationSeconds != 25_000 {
		t.Errorf("duration %v, want 25000", cfg.DurationSeconds)
	}
}

func TestConfigValidation(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.Scheme = core.Scheme(0) },
		func(c *Config) { c.NumSensors = 0 },
		func(c *Config) { c.NumSinks = 0 },
		func(c *Config) { c.NumSinks = 26 }, // more sinks than zones
		func(c *Config) { c.FieldSize = 0 },
		func(c *Config) { c.ZonesPerSide = -1 },
		func(c *Config) { c.MaxSpeed = 0 },
		func(c *Config) { c.ExitProb = 1.5 },
		func(c *Config) { c.RangeM = 0 },
		func(c *Config) { c.BitrateBps = 0 },
		func(c *Config) { c.ControlBits = 0 },
		func(c *Config) { c.DataBits = 0 },
		func(c *Config) { c.QueueCapacity = 0 },
		func(c *Config) { c.ArrivalMeanSeconds = 0 },
		func(c *Config) { c.DurationSeconds = 0 },
		func(c *Config) { c.MobilityTickSeconds = 0 },
	}
	for i, m := range muts {
		cfg := DefaultConfig(core.SchemeOPT)
		m(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunDeliversMessages(t *testing.T) {
	s, err := New(quickConfig(core.SchemeOPT))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivery.Generated == 0 {
		t.Fatal("no messages generated")
	}
	if res.Delivery.Delivered == 0 {
		t.Fatal("no messages delivered")
	}
	if res.Delivery.DeliveryRatio <= 0 || res.Delivery.DeliveryRatio > 1 {
		t.Fatalf("ratio %v out of (0,1]", res.Delivery.DeliveryRatio)
	}
	if res.AvgSensorPowerMW <= 0 || res.AvgSensorPowerMW > 25 {
		t.Fatalf("power %v mW implausible", res.AvgSensorPowerMW)
	}
	if res.AvgDutyCycle <= 0 || res.AvgDutyCycle > 1 {
		t.Fatalf("duty %v out of (0,1]", res.AvgDutyCycle)
	}
	if res.Scheme != "OPT" {
		t.Fatalf("scheme %q", res.Scheme)
	}
	if res.SimSeconds != 600 {
		t.Fatalf("sim time %v", res.SimSeconds)
	}
	if res.Events == 0 {
		t.Fatal("no events")
	}
}

func TestRunAllSchemes(t *testing.T) {
	for _, sch := range core.AllSchemes() {
		sch := sch
		t.Run(sch.String(), func(t *testing.T) {
			s, err := New(quickConfig(sch))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Delivery.Generated == 0 {
				t.Fatal("no traffic")
			}
			// Every scheme must deliver something in a small dense net —
			// except possibly DIRECT, whose sensors must individually
			// visit a sink.
			if sch != core.SchemeDirect && res.Delivery.Delivered == 0 {
				t.Fatalf("%v delivered nothing", sch)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed uint64) Result {
		cfg := quickConfig(core.SchemeOPT)
		cfg.Seed = seed
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(5), run(5)
	if a.Delivery != b.Delivery || a.AvgSensorPowerMW != b.AvgSensorPowerMW || a.Events != b.Events {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c := run(6)
	if a.Events == c.Events && a.Delivery == c.Delivery {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestRunTwiceRejected(t *testing.T) {
	s, err := New(quickConfig(core.SchemeOPT))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestSnapshotMidRun(t *testing.T) {
	s, err := New(quickConfig(core.SchemeOPT))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Scheduler().Run(300); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.SimSeconds != 300 {
		t.Fatalf("snapshot at %v, want 300", snap.SimSeconds)
	}
	if snap.Delivery.Generated == 0 {
		t.Fatal("no traffic by mid-run")
	}
}

func TestNodeAccessors(t *testing.T) {
	s, err := New(quickConfig(core.SchemeOPT))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Sensors()) != 20 || len(s.Sinks()) != 2 {
		t.Fatalf("population %d/%d", len(s.Sensors()), len(s.Sinks()))
	}
	// Sink IDs precede sensor IDs.
	if s.Sinks()[0].ID() != 0 || s.Sensors()[0].ID() != 2 {
		t.Fatalf("ids: sink %d sensor %d", s.Sinks()[0].ID(), s.Sensors()[0].ID())
	}
	if s.Collector() == nil {
		t.Fatal("nil collector")
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	buf := &telemetry.Buffer{}
	cfg := quickConfig(core.SchemeOPT)
	cfg.Recorder = buf
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[telemetry.EventType]bool)
	for _, ev := range buf.Events {
		seen[ev.Type] = true
	}
	for _, typ := range []telemetry.EventType{telemetry.EvGen, telemetry.EvSleep, telemetry.EvWake, telemetry.EvRx} {
		if !seen[typ] {
			t.Errorf("trace missing %q events", typ)
		}
	}
}

func TestTraceInvariantsHoldForEveryScheme(t *testing.T) {
	// Run each scheme under each fault mode that takes nodes down — a
	// one-shot kill (the death path) and churn with the buffer wiped or
	// preserved (crash silence and the boot wake) — and check the node
	// lifecycle rules on the recorded event stream.
	faultModes := []struct {
		name    string
		reboots bool
		apply   func(*Config)
	}{
		{"kill", false, func(cfg *Config) {
			cfg.Faults = &faults.Plan{Kills: []faults.Kill{{AtSeconds: cfg.DurationSeconds / 2, Fraction: 0.2}}}
		}},
		{"churn-wipe", true, func(cfg *Config) {
			cfg.Faults = &faults.Plan{Churn: &faults.Churn{MTBFSeconds: 200, MTTRSeconds: 50, Fraction: 0.5}}
		}},
		{"churn-preserve", true, func(cfg *Config) {
			cfg.Faults = &faults.Plan{Churn: &faults.Churn{MTBFSeconds: 200, MTTRSeconds: 50, Fraction: 0.5, PreserveBuffer: true}}
		}},
	}
	for _, sch := range core.AllSchemes() {
		sch := sch
		t.Run(sch.String(), func(t *testing.T) {
			for _, mode := range faultModes {
				mode := mode
				t.Run(mode.name, func(t *testing.T) {
					buf := &telemetry.Buffer{}
					cfg := quickConfig(sch)
					cfg.Recorder = buf
					mode.apply(&cfg)
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := s.Run(); err != nil {
						t.Fatal(err)
					}
					counts := make(map[telemetry.EventType]int)
					for _, ev := range buf.Events {
						counts[ev.Type]++
					}
					if counts[telemetry.EvCrash] == 0 {
						t.Fatal("no node went down")
					}
					if mode.reboots && counts[telemetry.EvReboot] == 0 {
						t.Fatal("no crashed node rebooted")
					}
					if vs := telemetry.Verify(buf.Events); len(vs) != 0 {
						t.Fatalf("protocol invariants violated: %v", vs)
					}
				})
			}
		})
	}
}

func TestStrategicZonesSpread(t *testing.T) {
	g, err := geo.NewGrid(geo.NewRect(0, 0, 150, 150), 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	zones := strategicZones(g, 25)
	if len(zones) != 25 {
		t.Fatalf("got %d zones", len(zones))
	}
	seen := map[geo.ZoneID]bool{}
	for _, z := range zones {
		if z < 0 || int(z) >= 25 {
			t.Fatalf("zone %d out of range", z)
		}
		if seen[z] {
			t.Fatalf("zone %d repeated", z)
		}
		seen[z] = true
	}
	// First sink sits at the centre zone.
	if zones[0] != 12 {
		t.Fatalf("first strategic zone %d, want centre 12", zones[0])
	}
	// The first few sinks are pairwise distant (spread requirement).
	r0, err := g.ZoneRect(zones[0])
	if err != nil {
		t.Fatal(err)
	}
	r1, err := g.ZoneRect(zones[1])
	if err != nil {
		t.Fatal(err)
	}
	if r0.Center().Dist(r1.Center()) < 30 {
		t.Fatalf("first two sinks only %v m apart", r0.Center().Dist(r1.Center()))
	}
}

func TestFiniteBatteriesShortenLifetime(t *testing.T) {
	cfg := quickConfig(core.SchemeNOSLEEP)
	cfg.BatteryJoules = 2 // ~148 s at 13.5 mW always-on
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AliveFraction != 0 {
		t.Fatalf("alive fraction %v, want 0 (all exhausted)", res.AliveFraction)
	}
	if res.FirstDeathSeconds <= 0 || res.FirstDeathSeconds > 200 {
		t.Fatalf("first death at %v, want ~148 s", res.FirstDeathSeconds)
	}
	// The same budget under OPT keeps everyone alive (sleeping).
	cfg2 := quickConfig(core.SchemeOPT)
	cfg2.BatteryJoules = 2
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.AliveFraction != 1 {
		t.Fatalf("OPT alive fraction %v, want 1", res2.AliveFraction)
	}
	if res2.FirstDeathSeconds != 0 {
		t.Fatalf("OPT first death %v, want none", res2.FirstDeathSeconds)
	}
}

func TestUnlimitedBatteryAliveFraction(t *testing.T) {
	s, err := New(quickConfig(core.SchemeOPT))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AliveFraction != 1 || res.FirstDeathSeconds != 0 {
		t.Fatalf("unlimited run: alive %v first death %v", res.AliveFraction, res.FirstDeathSeconds)
	}
}

func TestMobileSinksDeliver(t *testing.T) {
	cfg := quickConfig(core.SchemeOPT)
	cfg.MobileSinks = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The sink must actually move.
	start := s.Sinks()[0].Radio().Position()
	if err := s.Scheduler().Run(120); err != nil {
		t.Fatal(err)
	}
	moved := s.Sinks()[0].Radio().Position()
	if start.Dist(moved) < 1 {
		t.Fatalf("mobile sink barely moved: %v -> %v", start, moved)
	}
	if err := s.Scheduler().Run(600); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().Delivery.Delivered == 0 {
		t.Fatal("no deliveries with mobile sinks")
	}
}

func TestFaultInjectionKillsFraction(t *testing.T) {
	cfg := quickConfig(core.SchemeOPT)
	cfg.Faults = &faults.Plan{Kills: []faults.Kill{{AtSeconds: 100, Fraction: 0.3}}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 30% of 20 sensors = 6 dead.
	if res.AliveFraction != 0.7 {
		t.Fatalf("alive fraction %v, want 0.7", res.AliveFraction)
	}
	if res.FirstDeathSeconds != 100 {
		t.Fatalf("first death at %v, want 100", res.FirstDeathSeconds)
	}
	dead := 0
	for _, n := range s.Sensors() {
		if !n.Alive() {
			dead++
			if n.Stats().DiedAt != 100 {
				t.Fatalf("node died at %v, want 100", n.Stats().DiedAt)
			}
		}
	}
	if dead != 6 {
		t.Fatalf("%d dead sensors, want 6", dead)
	}
	// The injector runs the burst, so the resilience digest accounts for it.
	if res.Resilience.Crashes != 6 || res.Resilience.Recoveries != 0 {
		t.Fatalf("resilience %+v, want 6 crashes and no recoveries", res.Resilience)
	}
}

func TestFaultConfigValidation(t *testing.T) {
	kill := func(at, fraction float64) *faults.Plan {
		return &faults.Plan{Kills: []faults.Kill{{AtSeconds: at, Fraction: fraction}}}
	}
	cfg := quickConfig(core.SchemeOPT)
	cfg.Faults = kill(100, 1.5)
	if _, err := New(cfg); err == nil {
		t.Error("fail fraction > 1 accepted")
	}
	cfg = quickConfig(core.SchemeOPT)
	cfg.Faults = kill(0, 0.5) // no time
	if _, err := New(cfg); err == nil {
		t.Error("failures without a time accepted")
	}
	cfg = quickConfig(core.SchemeOPT)
	cfg.Faults = kill(cfg.DurationSeconds+1, 0.5) // would silently never fire
	if _, err := New(cfg); err == nil {
		t.Error("failure time beyond the run accepted")
	}
	cfg = quickConfig(core.SchemeOPT)
	cfg.LossProb = -0.1
	if _, err := New(cfg); err == nil {
		t.Error("negative loss accepted")
	}
	// Fault-plan errors surface through Config.Validate too.
	cfg = quickConfig(core.SchemeOPT)
	cfg.Faults = &faults.Plan{Churn: &faults.Churn{MTBFSeconds: -1, MTTRSeconds: 10}}
	if _, err := New(cfg); err == nil {
		t.Error("negative churn MTBF accepted")
	}
	cfg = quickConfig(core.SchemeOPT)
	cfg.Faults = &faults.Plan{SinkOutages: []faults.Outage{{Sink: 5, StartSeconds: 10, DurationSeconds: 10}}}
	if _, err := New(cfg); err == nil {
		t.Error("outage of a nonexistent sink accepted")
	}
	cfg = quickConfig(core.SchemeOPT)
	cfg.Faults = &faults.Plan{Kills: []faults.Kill{{AtSeconds: cfg.DurationSeconds * 2, Fraction: 0.5}}}
	if _, err := New(cfg); err == nil {
		t.Error("kill beyond the run accepted")
	}
}

// TestFaultPlanEndToEnd runs the full fault-injection stack in one plan —
// node churn, a sink outage, and Gilbert–Elliott burst loss — and checks
// the resilience digest, plus byte-for-byte determinism across same-seed
// runs.
func TestFaultPlanEndToEnd(t *testing.T) {
	run := func() Result {
		t.Helper()
		cfg := quickConfig(core.SchemeOPT)
		cfg.DurationSeconds = 1200
		cfg.Faults = &faults.Plan{
			Churn:       &faults.Churn{MTBFSeconds: 300, MTTRSeconds: 100, Fraction: 0.5, StartSeconds: 200},
			SinkOutages: []faults.Outage{{Sink: 0, StartSeconds: 400, DurationSeconds: 200}},
			Burst:       &faults.Burst{BadLossProb: 0.8, MeanGoodSeconds: 120, MeanBadSeconds: 40},
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Resilience.Crashes == 0 {
		t.Error("churn produced no crashes")
	}
	if res.Resilience.Recoveries == 0 {
		t.Error("churn produced no reboots")
	}
	if res.Resilience.Crashes < res.Resilience.Recoveries {
		t.Errorf("more reboots (%d) than crashes (%d)", res.Resilience.Recoveries, res.Resilience.Crashes)
	}
	if res.Resilience.SinkOutages != 1 {
		t.Errorf("sink outages %d, want 1", res.Resilience.SinkOutages)
	}
	if res.Channel.LossesBurst == 0 {
		t.Error("burst loss process corrupted nothing")
	}
	if res.Delivery.Delivered == 0 {
		t.Error("network delivered nothing despite faults")
	}
	if res.Resilience.Orphaned > res.Delivery.Generated-res.Delivery.Delivered {
		t.Errorf("orphaned %d exceeds undelivered count", res.Resilience.Orphaned)
	}
	res2 := run()
	if !reflect.DeepEqual(res, res2) {
		t.Fatalf("same seed diverged under a fault plan:\n%+v\n%+v", res, res2)
	}
}

// TestSinkOutageSuppressesDeliveries starves a single-sink network during
// the outage window: nothing can be delivered while the only sink is down.
func TestSinkOutageSuppressesDeliveries(t *testing.T) {
	cfg := quickConfig(core.SchemeOPT)
	cfg.NumSinks = 1
	cfg.DurationSeconds = 900
	cfg.Faults = &faults.Plan{SinkOutages: []faults.Outage{{Sink: 0, StartSeconds: 300, DurationSeconds: 300}}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Scheduler().Run(300); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot().Delivery.Delivered
	if before == 0 {
		t.Fatal("no deliveries before the outage")
	}
	if err := s.Scheduler().Run(599); err != nil {
		t.Fatal(err)
	}
	during := s.Snapshot().Delivery.Delivered
	if during != before {
		t.Fatalf("deliveries rose %d -> %d while the only sink was down", before, during)
	}
	if err := s.Scheduler().Run(900); err != nil {
		t.Fatal(err)
	}
	after := s.Snapshot()
	if after.Delivery.Delivered <= during {
		t.Fatalf("no deliveries after the sink recovered (stuck at %d)", during)
	}
	if after.Resilience.SinkOutages != 1 {
		t.Fatalf("sink outages %d, want 1", after.Resilience.SinkOutages)
	}
}

func TestLossDegradesDelivery(t *testing.T) {
	run := func(loss float64) Result {
		t.Helper()
		cfg := quickConfig(core.SchemeOPT)
		cfg.DurationSeconds = 1200
		cfg.LossProb = loss
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean, lossy := run(0), run(0.5)
	if lossy.Channel.Losses == 0 {
		t.Fatal("loss process produced no losses")
	}
	if clean.Channel.Losses != 0 {
		t.Fatal("losses without a loss process")
	}
	if lossy.Delivery.DeliveryRatio >= clean.Delivery.DeliveryRatio {
		t.Fatalf("50%% loss did not hurt delivery: %.3f vs %.3f",
			lossy.Delivery.DeliveryRatio, clean.Delivery.DeliveryRatio)
	}
}

func TestGenerationRecordedEvenWhenDropped(t *testing.T) {
	// A tiny queue forces generation drops; the collector must still count
	// those messages as generated (they are undelivered, not unborn).
	cfg := quickConfig(core.SchemeOPT)
	cfg.QueueCapacity = 1
	cfg.ArrivalMeanSeconds = 10
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivery.Generated < 100 {
		t.Fatalf("generated %d, expected heavy traffic", res.Delivery.Generated)
	}
	if res.DropsFull == 0 {
		t.Fatal("expected overflow drops with capacity 1")
	}
}

func TestTrafficStopDrains(t *testing.T) {
	cfg := quickConfig(core.SchemeOPT)
	cfg.DurationSeconds = 600
	cfg.TrafficStopSeconds = 200
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Roughly a third of the full-horizon traffic.
	full := quickConfig(core.SchemeOPT)
	full.DurationSeconds = 600
	s2, err := New(full)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivery.Generated >= res2.Delivery.Generated {
		t.Fatalf("traffic stop did not reduce generation: %d vs %d",
			res.Delivery.Generated, res2.Delivery.Generated)
	}
	// With 400 s of drain the truncated run delivers a larger fraction.
	if res.Delivery.DeliveryRatio <= res2.Delivery.DeliveryRatio {
		t.Fatalf("drain did not raise ratio: %.3f vs %.3f",
			res.Delivery.DeliveryRatio, res2.Delivery.DeliveryRatio)
	}
	// Validation.
	bad := quickConfig(core.SchemeOPT)
	bad.TrafficStopSeconds = bad.DurationSeconds + 1
	if _, err := New(bad); err == nil {
		t.Fatal("traffic stop beyond horizon accepted")
	}
}

func TestEnergyAccountingBounds(t *testing.T) {
	// Physical sanity: every sensor's average power must lie between the
	// sleep floor and the transmit ceiling, and the per-state durations
	// must sum to the simulated time.
	s, err := New(quickConfig(core.SchemeOPT))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	now := s.Scheduler().Now()
	for _, n := range s.Sensors() {
		m := n.Radio().Meter()
		p := m.AveragePowerW(now)
		if p < 15e-6 || p > 54e-3 {
			t.Fatalf("node %d avg power %v W outside [sleep, switch]", n.ID(), p)
		}
		var total float64
		for st := energy.Sleep; st <= energy.Switch; st++ {
			total += m.StateSeconds(st, now)
		}
		if diff := total - now; diff > 1.5 || diff < -1.5 {
			// Start jitter delays metering by up to 1 s.
			t.Fatalf("node %d state time %v vs sim time %v", n.ID(), total, now)
		}
	}
}

func TestMessageIDsUniquePerRun(t *testing.T) {
	s, err := New(quickConfig(core.SchemeOPT))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Collector.Generated errors on duplicate IDs; reaching here with
	// traffic proves uniqueness, but double-check via the summary.
	if got := s.Collector().Summarize().Generated; got == 0 {
		t.Fatal("no messages")
	}
}

// TestInvariantsCleanRun arms the invariant engine over a faulted run and
// expects real work and zero breaches: the protocol as built satisfies its
// own catalog.
func TestInvariantsCleanRun(t *testing.T) {
	cfg := quickConfig(core.SchemeOPT)
	cfg.Invariants = "report"
	cfg.Faults = &faults.Plan{
		Churn:       &faults.Churn{MTBFSeconds: 150, MTTRSeconds: 75, StartSeconds: 50},
		SinkOutages: []faults.Outage{{Sink: 0, StartSeconds: 100, DurationSeconds: 200}},
		Kills:       []faults.Kill{{AtSeconds: 400, Fraction: 0.2}},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Invariants.Armed {
		t.Fatal("engine not armed")
	}
	if res.Invariants.Checks == 0 {
		t.Fatal("engine did no checks")
	}
	if res.Invariants.Violations != 0 {
		t.Fatalf("clean build violated invariants:\n%v", res.Invariants.Recorded)
	}
	if res.Delivery.InvariantViolations != 0 || res.Delivery.FirstInvariantViolation != "" {
		t.Fatalf("collector saw violations: %d, %q",
			res.Delivery.InvariantViolations, res.Delivery.FirstInvariantViolation)
	}
}

// TestInvariantsCatchMutation flips the Eq. 3 sender-FTD update off and
// expects the engine to flag ftd-sender breaches both in the digest and in
// the metrics summary.
func TestInvariantsCatchMutation(t *testing.T) {
	cfg := quickConfig(core.SchemeOPT)
	cfg.Invariants = "report"
	cfg.InjectSkipSenderFTD = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Invariants.Violations == 0 {
		t.Fatal("Eq. 3 mutation not caught")
	}
	if len(res.Invariants.Recorded) == 0 ||
		!strings.Contains(res.Invariants.Recorded[0].Check, "ftd-sender") {
		t.Fatalf("first recorded violation: %+v", res.Invariants.Recorded)
	}
	if res.Delivery.InvariantViolations == 0 ||
		!strings.Contains(res.Delivery.FirstInvariantViolation, "ftd-sender") {
		t.Fatalf("summary missed it: %d, %q",
			res.Delivery.InvariantViolations, res.Delivery.FirstInvariantViolation)
	}
}

// TestInvariantsPanicMode expects a mutated build to surface as a clean
// error carrying the virtual-time event context, not a process crash.
func TestInvariantsPanicMode(t *testing.T) {
	cfg := quickConfig(core.SchemeOPT)
	cfg.Invariants = "panic"
	cfg.InjectSkipSenderFTD = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run()
	if err == nil {
		t.Fatal("panic mode let a mutated build finish")
	}
	for _, want := range []string{"panic in event", "ftd-sender", "t="} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestInvariantsModeValidation(t *testing.T) {
	cfg := quickConfig(core.SchemeOPT)
	cfg.Invariants = "bogus"
	if _, err := New(cfg); err == nil {
		t.Error("bogus invariants mode accepted")
	}
}
