package scenario

import (
	"reflect"
	"testing"

	"dftmsn/internal/core"
	"dftmsn/internal/faults"
	"dftmsn/internal/telemetry"
)

// elisionConfigs extends the differential matrix with the regimes the
// event-elision engine cares about: the decaying-ξ schemes (FAD family and
// ZBR), an idle regime with sparse traffic where whole idle spans coalesce,
// and a battery-bounded run where coalescing is disabled but lazy decay
// still runs.
func elisionConfigs() map[string]Config {
	cfgs := differentialConfigs()

	base := func(scheme core.Scheme, seed uint64) Config {
		cfg := DefaultConfig(scheme)
		cfg.NumSensors = 25
		cfg.NumSinks = 2
		cfg.DurationSeconds = 800
		cfg.ArrivalMeanSeconds = 60
		cfg.Seed = seed
		return cfg
	}

	cfgs["zbr-plain"] = base(core.SchemeZBR, 8)

	idle := base(core.SchemeNOSLEEP, 9)
	idle.ArrivalMeanSeconds = 400
	cfgs["nosleep-idle"] = idle

	idleFaults := base(core.SchemeOPT, 10)
	idleFaults.ArrivalMeanSeconds = 300
	idleFaults.Faults = &faults.Plan{
		Churn:       &faults.Churn{MTBFSeconds: 250, MTTRSeconds: 60, Fraction: 0.3},
		SinkOutages: []faults.Outage{{Sink: 0, StartSeconds: 200, DurationSeconds: 150}},
	}
	cfgs["opt-idle-faults"] = idleFaults

	battery := base(core.SchemeNOOPT, 11)
	battery.BatteryJoules = 40
	cfgs["noopt-battery"] = battery

	// The scale tier's idle benchmark regime (bench_test.go idleConfig):
	// long sleeps and long awake idle runs via sleep-controller overrides.
	lowDuty := base(core.SchemeOPT, 12)
	lowDuty.ArrivalMeanSeconds = 300
	p := core.DefaultParams(core.SchemeOPT)
	p.Sleep.TMin = 5
	p.Sleep.L = 12
	lowDuty.Params = &p
	cfgs["opt-low-duty"] = lowDuty

	return cfgs
}

// TestEagerDecayMatchesLazy is the end-to-end differential property test
// for the event-elision engine: with Config.EagerDecay as the only
// difference, the whole Result minus the kernel event counters — delivery
// summary, channel stats, energy, resilience — and the full typed
// telemetry event stream must be identical. On top of that, the elided
// events must account exactly for the gap: the lazy arm's fired + elided
// events equal the eager arm's fired events. It pins equivalence on this
// matrix only; idle-span coalescing is known to diverge from the eager
// arm on larger or other-seeded configurations (docs/PROTOCOL.md §11).
func TestEagerDecayMatchesLazy(t *testing.T) {
	for name, cfg := range elisionConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			run := func(eager bool) (Result, []telemetry.Event) {
				c := cfg
				c.EagerDecay = eager
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
			lazyRes, lazyEvents := run(false)
			eagerRes, eagerEvents := run(true)

			if eagerRes.EventsElided != 0 {
				t.Errorf("eager arm elided %d events; wanted none", eagerRes.EventsElided)
			}
			if lazyRes.EventsElided == 0 {
				t.Errorf("lazy arm elided no events; the engine never engaged")
			}
			if got, want := lazyRes.Events+lazyRes.EventsElided, eagerRes.Events; got != want {
				t.Errorf("event conservation broken: lazy fired %d + elided %d = %d, eager fired %d",
					lazyRes.Events, lazyRes.EventsElided, got, want)
			}

			// The kernel counters are the one legitimate difference; blank
			// them and require everything else to match exactly.
			lazyCmp, eagerCmp := lazyRes, eagerRes
			lazyCmp.Events, lazyCmp.EventsScheduled, lazyCmp.EventsElided = 0, 0, 0
			eagerCmp.Events, eagerCmp.EventsScheduled, eagerCmp.EventsElided = 0, 0, 0
			// The invariant sweep runs per fired event, so its check count
			// legitimately shrinks with elision; violations must not.
			lazyCmp.Invariants.Checks = 0
			eagerCmp.Invariants.Checks = 0
			if !reflect.DeepEqual(lazyCmp, eagerCmp) {
				t.Errorf("results diverge:\nlazy:  %+v\neager: %+v", lazyCmp, eagerCmp)
			}
			if len(lazyEvents) != len(eagerEvents) {
				t.Fatalf("telemetry stream lengths diverge: lazy %d, eager %d",
					len(lazyEvents), len(eagerEvents))
			}
			for i := range lazyEvents {
				if !reflect.DeepEqual(lazyEvents[i], eagerEvents[i]) {
					t.Fatalf("telemetry streams diverge at event %d:\nlazy:  %s\neager: %s",
						i, eventString(lazyEvents[i]), eventString(eagerEvents[i]))
				}
			}
		})
	}
}
