// Package faults provides declarative, deterministically-seeded fault
// injection for DFT-MSN simulations — the workloads behind the paper's
// titular *fault* tolerance claim. A Plan describes what goes wrong during
// a run; an Injector executes it on the simulation scheduler.
//
// Supported fault classes:
//
//   - Node churn: sensors crash and recover in cycles, with exponential
//     mean-time-between-failures / mean-time-to-repair draws. Reboot
//     semantics are configurable: the buffer may be wiped (the default,
//     the fault Eqs. 2-3 replication tolerates) or preserved (a process
//     restart that kept flash), and the learned routing state (ξ, history)
//     may be reset or retained.
//   - Sink outages: windows during which a sink refuses all contact. While
//     a sink is down, sensors that relied on it stop completing data
//     transmissions, so their ξ decays through the Eq. 1 timeout rule and
//     recovers after the outage — exactly the dynamics Eq. 1 is for.
//   - Gilbert–Elliott burst loss: a two-state (good/bad) channel loss
//     process layered on the radio medium, complementing the existing
//     uniform i.i.d. loss (see radio.Medium.SetBurstLoss).
//   - Kills: one-shot burst failures of a sensor fraction at a fixed time
//     (the fault the paper's redundancy tolerates).
//
// Plans are plain data with JSON tags, so they round-trip through the
// scenario config files (the "faults" key of scenario.Config).
package faults

import (
	"fmt"
	"math"
)

// Plan is a declarative fault schedule for one simulation run. The zero
// value injects nothing. Plans are pure data; Validate checks them against
// the run horizon before an Injector accepts them.
type Plan struct {
	// Churn crashes and recovers sensors in exponential cycles.
	Churn *Churn `json:"churn,omitempty"`
	// SinkOutages are windows during which sinks refuse contact.
	SinkOutages []Outage `json:"sink_outages,omitempty"`
	// Burst enables Gilbert–Elliott two-state channel loss.
	Burst *Burst `json:"burst_loss,omitempty"`
	// Kills are one-shot burst failures (nodes never recover).
	Kills []Kill `json:"kills,omitempty"`
}

// Churn parameterises crash/recover cycles over a sensor subset. Each
// churned sensor alternates up-time ~ Exp(MTBF) and down-time ~ Exp(MTTR),
// independently, from the injector's deterministic random stream.
type Churn struct {
	// MTBFSeconds is the mean up-time between crashes (> 0).
	MTBFSeconds float64 `json:"mtbf_s"`
	// MTTRSeconds is the mean down-time until recovery (> 0).
	MTTRSeconds float64 `json:"mttr_s"`
	// Fraction is the share of sensors subject to churn, in (0,1].
	// Zero means 1 (all sensors), so a config can omit it.
	Fraction float64 `json:"fraction,omitempty"`
	// StartSeconds delays the first crash draws (default 0, within the run).
	StartSeconds float64 `json:"start_s,omitempty"`
	// PreserveBuffer reboots nodes with their queued messages intact
	// (default false: the buffer dies with the crash).
	PreserveBuffer bool `json:"preserve_buffer,omitempty"`
	// PreserveXi reboots nodes with their learned routing state (ξ or
	// history) intact (default false: soft state is lost).
	PreserveXi bool `json:"preserve_xi,omitempty"`
}

// Outage is one sink-down window.
type Outage struct {
	// Sink is the sink index (0-based); -1 takes every sink down.
	Sink int `json:"sink"`
	// StartSeconds is when the outage begins (within the run).
	StartSeconds float64 `json:"start_s"`
	// DurationSeconds is how long the sink stays down (> 0). An outage
	// may extend past the run horizon; the sink then never recovers.
	DurationSeconds float64 `json:"duration_s"`
}

// Burst parameterises the Gilbert–Elliott two-state loss process: the
// channel alternates exponential good and bad sojourns, corrupting each
// reception with the state's loss probability.
type Burst struct {
	// GoodLossProb corrupts receptions while the channel is good ([0,1]).
	GoodLossProb float64 `json:"good_loss_prob,omitempty"`
	// BadLossProb corrupts receptions while the channel is bad ([0,1]).
	BadLossProb float64 `json:"bad_loss_prob"`
	// MeanGoodSeconds is the mean good-state sojourn (> 0).
	MeanGoodSeconds float64 `json:"mean_good_s"`
	// MeanBadSeconds is the mean bad-state sojourn (> 0).
	MeanBadSeconds float64 `json:"mean_bad_s"`
}

// Kill is a one-shot burst failure: a sensor fraction dies for good, with
// its queued messages.
type Kill struct {
	// AtSeconds is when the burst strikes (> 0, within the run).
	AtSeconds float64 `json:"at_s"`
	// Fraction is the share of sensors killed, in (0,1].
	Fraction float64 `json:"fraction"`
}

// Enabled reports whether the plan injects anything.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.Churn != nil || len(p.SinkOutages) > 0 || p.Burst != nil || len(p.Kills) > 0
}

// NeedsInjector reports whether the plan has scheduled node/sink events
// (everything except the burst-loss channel process, which the radio
// medium runs by itself).
func (p *Plan) NeedsInjector() bool {
	if p == nil {
		return false
	}
	return p.Churn != nil || len(p.SinkOutages) > 0 || len(p.Kills) > 0
}

// ChurnFraction returns the effective churned-sensor share (the documented
// zero-means-all default applied).
func (c *Churn) ChurnFraction() float64 {
	if c.Fraction == 0 {
		return 1
	}
	return c.Fraction
}

// FirstFaultSeconds returns the earliest discrete fault time (churn start,
// first outage, first kill); ok is false when the plan schedules none.
// The burst-loss process is continuous background and does not count.
func (p *Plan) FirstFaultSeconds() (t float64, ok bool) {
	if p == nil {
		return 0, false
	}
	first := math.Inf(1)
	if p.Churn != nil {
		first = p.Churn.StartSeconds
		ok = true
	}
	for _, o := range p.SinkOutages {
		if !ok || o.StartSeconds < first {
			first = o.StartSeconds
			ok = true
		}
	}
	for _, k := range p.Kills {
		if !ok || k.AtSeconds < first {
			first = k.AtSeconds
			ok = true
		}
	}
	if !ok {
		return 0, false
	}
	return first, true
}

// Validate reports plan errors against a run of duration seconds and
// numSinks sink nodes. Fault times beyond the horizon are rejected — they
// would silently never fire.
func (p *Plan) Validate(duration float64, numSinks int) error {
	if p == nil {
		return nil
	}
	if duration <= 0 {
		return fmt.Errorf("faults: run duration %v must be positive", duration)
	}
	if c := p.Churn; c != nil {
		if c.MTBFSeconds <= 0 || math.IsNaN(c.MTBFSeconds) {
			return fmt.Errorf("faults: churn MTBF %v must be positive", c.MTBFSeconds)
		}
		if c.MTTRSeconds <= 0 || math.IsNaN(c.MTTRSeconds) {
			return fmt.Errorf("faults: churn MTTR %v must be positive", c.MTTRSeconds)
		}
		if c.Fraction < 0 || c.Fraction > 1 || math.IsNaN(c.Fraction) {
			return fmt.Errorf("faults: churn fraction %v out of (0,1] (0 means all)", c.Fraction)
		}
		if c.StartSeconds < 0 || c.StartSeconds >= duration {
			return fmt.Errorf("faults: churn start %v s outside the %v s run", c.StartSeconds, duration)
		}
	}
	for i, o := range p.SinkOutages {
		if o.Sink < -1 || o.Sink >= numSinks {
			return fmt.Errorf("faults: outage %d sink %d out of range (have %d sinks, -1 = all)", i, o.Sink, numSinks)
		}
		if o.StartSeconds < 0 || o.StartSeconds >= duration {
			return fmt.Errorf("faults: outage %d start %v s outside the %v s run", i, o.StartSeconds, duration)
		}
		if o.DurationSeconds <= 0 || math.IsNaN(o.DurationSeconds) {
			return fmt.Errorf("faults: outage %d duration %v must be positive", i, o.DurationSeconds)
		}
	}
	if b := p.Burst; b != nil {
		if b.GoodLossProb < 0 || b.GoodLossProb > 1 || math.IsNaN(b.GoodLossProb) {
			return fmt.Errorf("faults: burst good-state loss %v out of [0,1]", b.GoodLossProb)
		}
		if b.BadLossProb < 0 || b.BadLossProb > 1 || math.IsNaN(b.BadLossProb) {
			return fmt.Errorf("faults: burst bad-state loss %v out of [0,1]", b.BadLossProb)
		}
		if b.MeanGoodSeconds <= 0 || math.IsNaN(b.MeanGoodSeconds) {
			return fmt.Errorf("faults: burst mean good sojourn %v must be positive", b.MeanGoodSeconds)
		}
		if b.MeanBadSeconds <= 0 || math.IsNaN(b.MeanBadSeconds) {
			return fmt.Errorf("faults: burst mean bad sojourn %v must be positive", b.MeanBadSeconds)
		}
	}
	for i, k := range p.Kills {
		if k.AtSeconds <= 0 || k.AtSeconds > duration || math.IsNaN(k.AtSeconds) {
			return fmt.Errorf("faults: kill %d at %v s outside the %v s run", i, k.AtSeconds, duration)
		}
		if k.Fraction <= 0 || k.Fraction > 1 || math.IsNaN(k.Fraction) {
			return fmt.Errorf("faults: kill %d fraction %v out of (0,1]", i, k.Fraction)
		}
	}
	return nil
}
