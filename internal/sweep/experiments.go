package sweep

import (
	"fmt"

	"dftmsn/internal/core"
	"dftmsn/internal/faults"
	"dftmsn/internal/scenario"
)

// Options scales the predefined experiments. The paper's full fidelity is
// PaperOptions; QuickOptions shrinks runs for interactive use and
// benchmarks while preserving the qualitative shapes.
type Options struct {
	// DurationSeconds is the simulated time per run.
	DurationSeconds float64
	// Runs is the number of seeds averaged per point.
	Runs int
	// Sensors is the sensor population (except in the density sweep,
	// which sweeps it).
	Sensors int
	// BaseSeed offsets run seeds.
	BaseSeed uint64
}

// PaperOptions reproduces the paper's scale: 25 000 s, 100 sensors,
// averaged over several runs ("we run the simulation multiple times and
// average the collected results").
func PaperOptions() Options {
	return Options{DurationSeconds: 25_000, Runs: 3, Sensors: 100, BaseSeed: 1}
}

// QuickOptions is a reduced-scale preset whose curves keep the paper's
// qualitative shape; used by default in cmd/figures and the benchmarks.
func QuickOptions() Options {
	return Options{DurationSeconds: 6_000, Runs: 2, Sensors: 100, BaseSeed: 1}
}

func (o Options) validate() error {
	if o.DurationSeconds <= 0 || o.Runs < 1 || o.Sensors < 1 {
		return fmt.Errorf("sweep: invalid options %+v", o)
	}
	return nil
}

// Fig2 returns the paper's Figure 2 experiment: the four protocol variants
// swept over the number of sink nodes. The same table serves Fig. 2(a)
// delivery ratio, Fig. 2(b) average nodal power, and Fig. 2(c) delivery
// delay — select the metric when formatting.
func Fig2(o Options) (Experiment, error) {
	if err := o.validate(); err != nil {
		return Experiment{}, err
	}
	variants := make([]Variant, 0, 4)
	for _, sch := range core.Schemes() {
		sch := sch
		variants = append(variants, Variant{
			Name: sch.String(),
			Build: func(x float64) (scenario.Config, error) {
				cfg := scenario.DefaultConfig(sch)
				cfg.NumSensors = o.Sensors
				cfg.DurationSeconds = o.DurationSeconds
				cfg.NumSinks = int(x)
				return cfg, nil
			},
		})
	}
	return Experiment{
		Name:     "fig2",
		XLabel:   "sinks",
		Xs:       []float64{1, 2, 3, 4, 5},
		Variants: variants,
		Runs:     o.Runs,
		BaseSeed: o.BaseSeed,
	}, nil
}

// Density returns the §5 narrated node-density experiment: sensor count
// swept at the default 3 sinks. The paper reports that higher density
// overloads the sink-adjacent nodes, lowering the delivery ratio.
func Density(o Options) (Experiment, error) {
	if err := o.validate(); err != nil {
		return Experiment{}, err
	}
	variants := make([]Variant, 0, 4)
	for _, sch := range core.Schemes() {
		sch := sch
		variants = append(variants, Variant{
			Name: sch.String(),
			Build: func(x float64) (scenario.Config, error) {
				cfg := scenario.DefaultConfig(sch)
				cfg.DurationSeconds = o.DurationSeconds
				cfg.NumSensors = int(x)
				return cfg, nil
			},
		})
	}
	return Experiment{
		Name:     "density",
		XLabel:   "sensors",
		Xs:       []float64{50, 100, 150, 200},
		Variants: variants,
		Runs:     o.Runs,
		BaseSeed: o.BaseSeed,
	}, nil
}

// Speed returns the §5 narrated nodal-speed experiment: the maximum sensor
// speed swept at the default population. The paper reports rising delivery
// ratios and falling delays as speed increases.
func Speed(o Options) (Experiment, error) {
	if err := o.validate(); err != nil {
		return Experiment{}, err
	}
	variants := make([]Variant, 0, 4)
	for _, sch := range core.Schemes() {
		sch := sch
		variants = append(variants, Variant{
			Name: sch.String(),
			Build: func(x float64) (scenario.Config, error) {
				cfg := scenario.DefaultConfig(sch)
				cfg.DurationSeconds = o.DurationSeconds
				cfg.NumSensors = o.Sensors
				cfg.MaxSpeed = x
				return cfg, nil
			},
		})
	}
	return Experiment{
		Name:     "speed",
		XLabel:   "maxspeed",
		Xs:       []float64{1, 2.5, 5, 7.5, 10},
		Variants: variants,
		Runs:     o.Runs,
		BaseSeed: o.BaseSeed,
	}, nil
}

// Ablation returns this reproduction's own experiment: OPT with each §4
// optimization disabled in turn, over the sink sweep, quantifying what the
// adaptive listening period (Eq. 13), the adaptive contention window
// (Eq. 14), and the adaptive sleeping period (Eq. 6) each contribute.
func Ablation(o Options) (Experiment, error) {
	if err := o.validate(); err != nil {
		return Experiment{}, err
	}
	build := func(mutate func(*core.Params)) func(x float64) (scenario.Config, error) {
		return func(x float64) (scenario.Config, error) {
			cfg := scenario.DefaultConfig(core.SchemeOPT)
			cfg.NumSensors = o.Sensors
			cfg.DurationSeconds = o.DurationSeconds
			cfg.NumSinks = int(x)
			p := core.DefaultParams(core.SchemeOPT)
			mutate(&p)
			cfg.Params = &p
			return cfg, nil
		}
	}
	return Experiment{
		Name:   "ablation",
		XLabel: "sinks",
		Xs:     []float64{1, 3, 5},
		Variants: []Variant{
			{Name: "OPT", Build: build(func(*core.Params) {})},
			{Name: "OPT-fixedTau", Build: build(func(p *core.Params) { p.AdaptiveTau = false })},
			{Name: "OPT-fixedW", Build: build(func(p *core.Params) { p.AdaptiveWindow = false })},
			{Name: "OPT-fixedSleep", Build: build(func(p *core.Params) {
				p.AdaptiveSleep = false
				p.SleepFixed = 1
			})},
		},
		Runs:     o.Runs,
		BaseSeed: o.BaseSeed,
	}, nil
}

// Lifetime returns this reproduction's battery-exhaustion experiment: the
// sleeping and non-sleeping variants under a finite energy budget, swept
// over the budget. §4.1 motivates periodic sleeping with "prolonging the
// lifetime of individual sensors and accordingly the entire DFT-MSN"; this
// experiment quantifies it — the x axis is the battery in joules, and the
// reported metrics include the fraction of sensors still alive at the end
// and the time of the first death.
func Lifetime(o Options) (Experiment, error) {
	if err := o.validate(); err != nil {
		return Experiment{}, err
	}
	variants := make([]Variant, 0, 3)
	for _, sch := range []core.Scheme{core.SchemeOPT, core.SchemeNOOPT, core.SchemeNOSLEEP} {
		sch := sch
		variants = append(variants, Variant{
			Name: sch.String(),
			Build: func(x float64) (scenario.Config, error) {
				cfg := scenario.DefaultConfig(sch)
				cfg.NumSensors = o.Sensors
				cfg.DurationSeconds = o.DurationSeconds
				cfg.BatteryJoules = x
				return cfg, nil
			},
		})
	}
	return Experiment{
		Name:     "lifetime",
		XLabel:   "battery_j",
		Xs:       []float64{5, 15, 40},
		Variants: variants,
		Runs:     o.Runs,
		BaseSeed: o.BaseSeed,
	}, nil
}

// Faults returns this reproduction's fault-tolerance experiment: a burst
// node failure (killing the given fraction of sensors, with their queued
// messages, one third into the run) under the multi-copy FAD scheme versus
// the single-copy ZBR baseline and direct transmission. It makes the
// paper's titular property measurable: FTD-controlled replication keeps
// messages alive when their custodians die.
func Faults(o Options) (Experiment, error) {
	if err := o.validate(); err != nil {
		return Experiment{}, err
	}
	variants := make([]Variant, 0, 3)
	for _, sch := range []core.Scheme{core.SchemeOPT, core.SchemeZBR, core.SchemeDirect} {
		sch := sch
		variants = append(variants, Variant{
			Name: sch.String(),
			Build: func(x float64) (scenario.Config, error) {
				cfg := scenario.DefaultConfig(sch)
				cfg.NumSensors = o.Sensors
				cfg.DurationSeconds = o.DurationSeconds
				if x > 0 {
					cfg.Faults = &faults.Plan{Kills: []faults.Kill{{AtSeconds: o.DurationSeconds / 3, Fraction: x}}}
				}
				return cfg, nil
			},
		})
	}
	return Experiment{
		Name:     "faults",
		XLabel:   "fail_fraction",
		Xs:       []float64{0, 0.2, 0.4},
		Variants: variants,
		Runs:     o.Runs,
		BaseSeed: o.BaseSeed,
	}, nil
}

// Churn returns this reproduction's sustained-churn experiment: the swept
// fraction of sensors crashes and reboots in exponential MTBF/MTTR cycles
// (buffers wiped, ξ reset — the harsh reboot), under the multi-copy FAD
// scheme versus the single-copy ZBR baseline and direct transmission.
// Where the Faults experiment measures one burst, this one measures a
// steady failure process: every crash destroys the node's custodial
// copies, so delivery hinges on the replication the FTD loop maintains.
// The resilience columns (orphaned, copies_lost, crashes, recovery_s)
// expose the fault process itself next to the delivery metrics.
func Churn(o Options) (Experiment, error) {
	if err := o.validate(); err != nil {
		return Experiment{}, err
	}
	variants := make([]Variant, 0, 3)
	for _, sch := range []core.Scheme{core.SchemeOPT, core.SchemeZBR, core.SchemeDirect} {
		sch := sch
		variants = append(variants, Variant{
			Name: sch.String(),
			Build: func(x float64) (scenario.Config, error) {
				cfg := scenario.DefaultConfig(sch)
				cfg.NumSensors = o.Sensors
				cfg.DurationSeconds = o.DurationSeconds
				if x > 0 {
					// Fraction 0 means "all sensors" in a plan, but on
					// this axis x=0 is the fault-free baseline.
					cfg.Faults = &faults.Plan{Churn: &faults.Churn{
						MTBFSeconds:  o.DurationSeconds / 4,
						MTTRSeconds:  o.DurationSeconds / 8,
						Fraction:     x,
						StartSeconds: o.DurationSeconds / 6,
					}}
				}
				return cfg, nil
			},
		})
	}
	return Experiment{
		Name:     "churn",
		XLabel:   "churn_fraction",
		Xs:       []float64{0, 0.25, 0.5, 1},
		Variants: variants,
		Runs:     o.Runs,
		BaseSeed: o.BaseSeed,
	}, nil
}

// Loss returns this reproduction's channel-imperfection experiment: an
// independent per-reception loss probability stressing the handshake
// (every lost RTS/CTS/SCHEDULE/ACK costs an exchange; a lost ACK also
// costs a phantom removal from Φ).
func Loss(o Options) (Experiment, error) {
	if err := o.validate(); err != nil {
		return Experiment{}, err
	}
	variants := make([]Variant, 0, 2)
	for _, sch := range []core.Scheme{core.SchemeOPT, core.SchemeNOOPT} {
		sch := sch
		variants = append(variants, Variant{
			Name: sch.String(),
			Build: func(x float64) (scenario.Config, error) {
				cfg := scenario.DefaultConfig(sch)
				cfg.NumSensors = o.Sensors
				cfg.DurationSeconds = o.DurationSeconds
				cfg.LossProb = x
				return cfg, nil
			},
		})
	}
	return Experiment{
		Name:     "loss",
		XLabel:   "loss_prob",
		Xs:       []float64{0, 0.1, 0.2, 0.3},
		Variants: variants,
		Runs:     o.Runs,
		BaseSeed: o.BaseSeed,
	}, nil
}

// Extensions returns the §2 basic schemes (direct transmission and
// epidemic flooding) next to OPT over the sink sweep — the bracketing
// baselines analysed in the authors' earlier DFT-MSN work.
func Extensions(o Options) (Experiment, error) {
	if err := o.validate(); err != nil {
		return Experiment{}, err
	}
	variants := make([]Variant, 0, 3)
	for _, sch := range []core.Scheme{core.SchemeOPT, core.SchemeDirect, core.SchemeEpidemic} {
		sch := sch
		variants = append(variants, Variant{
			Name: sch.String(),
			Build: func(x float64) (scenario.Config, error) {
				cfg := scenario.DefaultConfig(sch)
				cfg.NumSensors = o.Sensors
				cfg.DurationSeconds = o.DurationSeconds
				cfg.NumSinks = int(x)
				return cfg, nil
			},
		})
	}
	return Experiment{
		Name:     "extensions",
		XLabel:   "sinks",
		Xs:       []float64{1, 3, 5},
		Variants: variants,
		Runs:     o.Runs,
		BaseSeed: o.BaseSeed,
	}, nil
}
