package scenario

import (
	"testing"

	"dftmsn/internal/core"
	"dftmsn/internal/faults"
)

// TestPaperShapes is the repository's reproduction gate: it runs the four
// §5 protocol variants on a mid-scale deterministic scenario and asserts
// the qualitative relationships the paper's Figure 2 reports. The runs are
// seeded, so this test is stable; it is skipped under -short (a few
// seconds of wall time on one core).
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	run := func(sch core.Scheme, sinks int) Result {
		t.Helper()
		cfg := DefaultConfig(sch)
		cfg.NumSinks = sinks
		cfg.DurationSeconds = 4000
		cfg.Seed = 7
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

	opt := run(core.SchemeOPT, 3)
	nosleep := run(core.SchemeNOSLEEP, 3)
	noopt := run(core.SchemeNOOPT, 3)
	zbr := run(core.SchemeZBR, 3)

	// Fig. 2(a): OPT and NOSLEEP lead on delivery ratio; NOOPT and ZBR
	// trail.
	if opt.Delivery.DeliveryRatio <= noopt.Delivery.DeliveryRatio {
		t.Errorf("fig2a: OPT ratio %.3f not above NOOPT %.3f",
			opt.Delivery.DeliveryRatio, noopt.Delivery.DeliveryRatio)
	}
	if opt.Delivery.DeliveryRatio <= zbr.Delivery.DeliveryRatio {
		t.Errorf("fig2a: OPT ratio %.3f not above ZBR %.3f",
			opt.Delivery.DeliveryRatio, zbr.Delivery.DeliveryRatio)
	}
	if diff := nosleep.Delivery.DeliveryRatio - opt.Delivery.DeliveryRatio; diff < -0.05 {
		t.Errorf("fig2a: NOSLEEP ratio %.3f far below OPT %.3f",
			nosleep.Delivery.DeliveryRatio, opt.Delivery.DeliveryRatio)
	}

	// Fig. 2(b): NOSLEEP burns several times OPT's power (paper: ~8x);
	// among sleeping variants NOOPT > ZBR > OPT.
	if ratio := nosleep.AvgSensorPowerMW / opt.AvgSensorPowerMW; ratio < 5 || ratio > 20 {
		t.Errorf("fig2b: NOSLEEP/OPT power ratio %.1f outside the ~8x band", ratio)
	}
	if noopt.AvgSensorPowerMW <= opt.AvgSensorPowerMW {
		t.Errorf("fig2b: NOOPT power %.3f not above OPT %.3f",
			noopt.AvgSensorPowerMW, opt.AvgSensorPowerMW)
	}
	if zbr.AvgSensorPowerMW <= opt.AvgSensorPowerMW {
		t.Errorf("fig2b: ZBR power %.3f not above OPT %.3f",
			zbr.AvgSensorPowerMW, opt.AvgSensorPowerMW)
	}
	if zbr.AvgSensorPowerMW >= noopt.AvgSensorPowerMW {
		t.Errorf("fig2b: ZBR power %.3f not below NOOPT %.3f",
			zbr.AvgSensorPowerMW, noopt.AvgSensorPowerMW)
	}

	// Fig. 2(c): NOSLEEP delivers faster than the sleeping variants.
	if nosleep.Delivery.AvgDelaySeconds >= opt.Delivery.AvgDelaySeconds {
		t.Errorf("fig2c: NOSLEEP delay %.0f not below OPT %.0f",
			nosleep.Delivery.AvgDelaySeconds, opt.Delivery.AvgDelaySeconds)
	}

	// Fig. 2 x-axis: more sinks help every scheme; ZBR suffers most with
	// a single sink.
	opt1 := run(core.SchemeOPT, 1)
	zbr1 := run(core.SchemeZBR, 1)
	if opt1.Delivery.DeliveryRatio >= opt.Delivery.DeliveryRatio {
		t.Errorf("fig2a: OPT ratio did not rise with sinks: %.3f at 1 vs %.3f at 3",
			opt1.Delivery.DeliveryRatio, opt.Delivery.DeliveryRatio)
	}
	if zbr1.Delivery.DeliveryRatio >= opt1.Delivery.DeliveryRatio {
		t.Errorf("fig2a: ZBR %.3f not below OPT %.3f at one sink",
			zbr1.Delivery.DeliveryRatio, opt1.Delivery.DeliveryRatio)
	}
}

// TestFaultToleranceShape asserts the titular property: under a burst
// failure that kills 40% of the sensors (and their queues) mid-run, the
// multi-copy FAD scheme retains far more of its delivery ratio than the
// single-copy ZBR baseline.
func TestFaultToleranceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	// Retention margins are a few percent, so average over seeds rather
	// than trusting a single run.
	seeds := []uint64{7, 13}
	run := func(sch core.Scheme, failFraction float64) float64 {
		t.Helper()
		var sum float64
		for _, seed := range seeds {
			cfg := DefaultConfig(sch)
			cfg.DurationSeconds = 4000
			cfg.Seed = seed
			if failFraction > 0 {
				cfg.Faults = &faults.Plan{Kills: []faults.Kill{{AtSeconds: cfg.DurationSeconds / 3, Fraction: failFraction}}}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Delivery.DeliveryRatio
		}
		return sum / float64(len(seeds))
	}
	optClean := run(core.SchemeOPT, 0)
	optFail := run(core.SchemeOPT, 0.4)
	zbrClean := run(core.SchemeZBR, 0)
	zbrFail := run(core.SchemeZBR, 0.4)

	// Absolute ordering under failures is the robust claim.
	if optFail <= zbrFail {
		t.Errorf("under failures OPT ratio %.3f not above ZBR %.3f", optFail, zbrFail)
	}
	// Retention: OPT must not lose meaningfully more of its ratio than ZBR
	// (small tolerance — the margins are a few percent).
	optRetained := optFail / optClean
	zbrRetained := zbrFail / zbrClean
	if optRetained < zbrRetained-0.02 {
		t.Errorf("fault tolerance inverted: OPT retained %.3f of its ratio, ZBR %.3f",
			optRetained, zbrRetained)
	}
}

// TestChurnToleranceShape is the churn analogue of the burst-failure
// claim: under sustained crash/reboot cycles that wipe buffers, the
// multi-copy FAD scheme out-delivers the single-copy ZBR baseline — a
// crash destroys ZBR's only copy but merely thins FAD's redundancy.
func TestChurnToleranceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	seeds := []uint64{7, 13}
	run := func(sch core.Scheme) (ratio float64, crashes, recoveries uint64) {
		t.Helper()
		var sum float64
		for _, seed := range seeds {
			cfg := DefaultConfig(sch)
			cfg.DurationSeconds = 4000
			cfg.Seed = seed
			cfg.Faults = &faults.Plan{Churn: &faults.Churn{
				MTBFSeconds:  1000,
				MTTRSeconds:  500,
				StartSeconds: 500,
			}}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Delivery.DeliveryRatio
			crashes += res.Resilience.Crashes
			recoveries += res.Resilience.Recoveries
		}
		return sum / float64(len(seeds)), crashes, recoveries
	}
	opt, optCrashes, optRecoveries := run(core.SchemeOPT)
	zbr, _, _ := run(core.SchemeZBR)
	if optCrashes == 0 || optRecoveries == 0 {
		t.Fatalf("churn inert: %d crashes, %d recoveries", optCrashes, optRecoveries)
	}
	if opt <= zbr {
		t.Errorf("under churn FAD ratio %.3f not above ZBR %.3f", opt, zbr)
	}
}

// TestSpeedShape asserts the §5 narrated speed result: faster nodes raise
// the delivery ratio and cut the delay.
func TestSpeedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	run := func(speed float64) Result {
		t.Helper()
		cfg := DefaultConfig(core.SchemeOPT)
		cfg.MaxSpeed = speed
		cfg.DurationSeconds = 4000
		cfg.Seed = 3
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
	slow, fast := run(1), run(10)
	if fast.Delivery.DeliveryRatio <= slow.Delivery.DeliveryRatio {
		t.Errorf("speed: ratio %.3f at 10 m/s not above %.3f at 1 m/s",
			fast.Delivery.DeliveryRatio, slow.Delivery.DeliveryRatio)
	}
	if fast.Delivery.AvgDelaySeconds >= slow.Delivery.AvgDelaySeconds {
		t.Errorf("speed: delay %.0f at 10 m/s not below %.0f at 1 m/s",
			fast.Delivery.AvgDelaySeconds, slow.Delivery.AvgDelaySeconds)
	}
}
