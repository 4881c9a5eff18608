package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"dftmsn/internal/core"
	"dftmsn/internal/faults"
	"dftmsn/internal/telemetry"
)

// differentialConfigs enumerates end-to-end scenarios exercising every
// subsystem that interacts with the medium's range queries: mobility (sinks
// included), uniform and Gilbert–Elliott loss, churn crashes, one-shot kill
// bursts, and the FTD and FIFO protocol families, NOSLEEP included. Each is
// run twice — spatial index vs linear scan — and must produce identical
// results.
func differentialConfigs() map[string]Config {
	base := func(scheme core.Scheme, seed uint64) Config {
		cfg := DefaultConfig(scheme)
		cfg.NumSensors = 25
		cfg.NumSinks = 2
		cfg.DurationSeconds = 800
		cfg.ArrivalMeanSeconds = 60
		cfg.Seed = seed
		return cfg
	}

	cfgs := make(map[string]Config)
	cfgs["opt-plain"] = base(core.SchemeOPT, 3)

	lossy := base(core.SchemeOPT, 4)
	lossy.LossProb = 0.15
	cfgs["opt-uniform-loss"] = lossy

	burst := base(core.SchemeNOOPT, 5)
	burst.Faults = &faults.Plan{Burst: &faults.Burst{
		GoodLossProb: 0.02, BadLossProb: 0.6,
		MeanGoodSeconds: 40, MeanBadSeconds: 8,
	}}
	cfgs["noopt-burst-loss"] = burst

	churn := base(core.SchemeOPT, 6)
	churn.Faults = &faults.Plan{
		Churn: &faults.Churn{MTBFSeconds: 200, MTTRSeconds: 50, Fraction: 0.4},
		Kills: []faults.Kill{{AtSeconds: 400, Fraction: 0.2}},
	}
	cfgs["opt-churn-kills"] = churn

	mobile := base(core.SchemeDirect, 7)
	mobile.MobileSinks = true
	mobile.LossProb = 0.05
	cfgs["direct-mobile-sinks"] = mobile

	// NOSLEEP sends the most frames per position epoch, so it leans on the
	// cached hearer lists hardest; churn and kills revive radios whose
	// lists were built in an earlier life.
	nosleep := base(core.SchemeNOSLEEP, 8)
	nosleep.LossProb = 0.1
	nosleep.Faults = &faults.Plan{
		Churn: &faults.Churn{MTBFSeconds: 150, MTTRSeconds: 40, Fraction: 0.5},
		Kills: []faults.Kill{{AtSeconds: 500, Fraction: 0.2}},
	}
	cfgs["nosleep-churn-kills-loss"] = nosleep

	// ZBR stands for the FIFO family of schemes.
	zbr := base(core.SchemeZBR, 9)
	zbr.MobileSinks = true
	zbr.Faults = &faults.Plan{Burst: &faults.Burst{
		GoodLossProb: 0.02, BadLossProb: 0.6,
		MeanGoodSeconds: 40, MeanBadSeconds: 8,
	}}
	cfgs["zbr-mobile-sinks-burst"] = zbr

	return cfgs
}

// TestLinearMediumMatchesIndexed is the end-to-end differential property
// test for the tentpole: with Config.LinearMedium as the only difference,
// the whole Result — delivery summary, channel stats, energy, event count —
// and the full typed telemetry event stream must be identical. Any
// divergence means the spatial index changed which receptions happen or in
// what order RNG draws fire.
func TestLinearMediumMatchesIndexed(t *testing.T) {
	for name, cfg := range differentialConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			run := func(linear bool) (Result, []telemetry.Event) {
				c := cfg
				c.LinearMedium = linear
				buf := &telemetry.Buffer{}
				c.Recorder = buf
				s, err := New(c)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res, buf.Events
			}
			idxRes, idxEvents := run(false)
			linRes, linEvents := run(true)

			if !reflect.DeepEqual(idxRes, linRes) {
				t.Errorf("results diverge:\nindexed: %+v\nlinear:  %+v", idxRes, linRes)
			}
			if len(idxEvents) != len(linEvents) {
				t.Fatalf("telemetry stream lengths diverge: indexed %d, linear %d",
					len(idxEvents), len(linEvents))
			}
			for i := range idxEvents {
				if !reflect.DeepEqual(idxEvents[i], linEvents[i]) {
					t.Fatalf("telemetry streams diverge at event %d:\nindexed: %s\nlinear:  %s",
						i, eventString(idxEvents[i]), eventString(linEvents[i]))
				}
			}
		})
	}
}

func eventString(ev telemetry.Event) string {
	return fmt.Sprintf("%#v", ev)
}
