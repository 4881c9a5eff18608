package radio

import (
	"fmt"

	"dftmsn/internal/energy"
	"dftmsn/internal/packet"
	"dftmsn/internal/sim"
	"dftmsn/internal/simrand"
)

// KindCount is one (frame kind, count) pair of a StatsState. Snapshots carry
// the nonzero per-kind counters as kind-sorted slices.
type KindCount struct {
	Kind  packet.Kind
	Count uint64
}

// StatsState is the medium's channel counters in snapshot form.
type StatsState struct {
	FramesSent      []KindCount
	FramesDelivered []KindCount
	Collisions      uint64
	Losses          uint64
	LossesUniform   uint64
	LossesBurst     uint64
	ControlBits     uint64
	DataBits        uint64
}

// list returns the nonzero counters in kind order.
func (c *kindCounters) list() []KindCount {
	var out []KindCount
	for k, v := range c {
		if v > 0 {
			out = append(out, KindCount{Kind: packet.Kind(k), Count: v})
		}
	}
	return out
}

// restore overwrites the counters with a snapshot's list.
func (c *kindCounters) restore(kcs []KindCount) error {
	*c = kindCounters{}
	for _, kc := range kcs {
		if kc.Kind < packet.KindPreamble || int(kc.Kind) >= len(c) {
			return fmt.Errorf("radio: snapshot counts frame kind %d", kc.Kind)
		}
		c[kc.Kind] = kc.Count
	}
	return nil
}

// MediumState is a quiescent medium's snapshot: channel counters plus the
// loss-process positions. In-flight transmissions are never serialized — the
// checkpoint machinery steps past them first.
type MediumState struct {
	Stats    StatsState
	LossRNG  simrand.State // nil when no uniform loss process runs
	BurstBad bool
	BurstRNG simrand.State // nil when no Gilbert–Elliott process runs
	BurstEv  *sim.EventRef
}

// ExportState captures the medium for a snapshot. It fails while frames are
// in flight.
func (m *Medium) ExportState() (MediumState, error) {
	if len(m.active) > 0 {
		return MediumState{}, fmt.Errorf("radio: %d transmissions in flight, cannot snapshot", len(m.active))
	}
	st := MediumState{
		Stats: StatsState{
			FramesSent:      m.sent.list(),
			FramesDelivered: m.received.list(),
			Collisions:      m.stats.Collisions,
			Losses:          m.stats.Losses,
			LossesUniform:   m.stats.LossesUniform,
			LossesBurst:     m.stats.LossesBurst,
			ControlBits:     m.stats.ControlBits,
			DataBits:        m.stats.DataBits,
		},
		BurstBad: m.burstBad,
		BurstEv:  sim.Ref(m.burstEv),
	}
	if m.lossRng != nil {
		st.LossRNG = m.lossRng.State()
	}
	if m.burstRng != nil {
		st.BurstRNG = m.burstRng.State()
	}
	return st, nil
}

// RestoreState overlays a snapshot onto a freshly built medium with the same
// configuration and loss processes, re-injecting the pending burst flip at
// its exact recorded position. The scheduler's queue must already have been
// reset.
func (m *Medium) RestoreState(st MediumState) error {
	if (st.LossRNG != nil) != (m.lossRng != nil) {
		return fmt.Errorf("radio: snapshot and medium disagree on the uniform loss process")
	}
	if (st.BurstRNG != nil) != (m.burstRng != nil) {
		return fmt.Errorf("radio: snapshot and medium disagree on the burst loss process")
	}
	if err := m.sent.restore(st.Stats.FramesSent); err != nil {
		return err
	}
	if err := m.received.restore(st.Stats.FramesDelivered); err != nil {
		return err
	}
	m.stats.Collisions = st.Stats.Collisions
	m.stats.Losses = st.Stats.Losses
	m.stats.LossesUniform = st.Stats.LossesUniform
	m.stats.LossesBurst = st.Stats.LossesBurst
	m.stats.ControlBits = st.Stats.ControlBits
	m.stats.DataBits = st.Stats.DataBits
	if m.lossRng != nil {
		m.lossRng.Restore(st.LossRNG)
	}
	m.burstBad = st.BurstBad
	if m.burstRng != nil {
		m.burstRng.Restore(st.BurstRNG)
	}
	ev, err := m.sched.InjectAt(st.BurstEv, m.flipFn)
	if err != nil {
		return err
	}
	if ev != nil {
		m.burstEv = ev
	}
	return nil
}

// RadioState is one quiescent radio's snapshot. Receptions and transmissions
// never survive into a snapshot; only the off/idle/switching state, the
// pending wake/sleep switch, and the energy meter do.
type RadioState struct {
	State  State
	Killed bool
	Epoch  uint64
	WakeEv *sim.EventRef
	Meter  energy.MeterState
}

// ExportState captures the radio for a snapshot. It fails mid-reception or
// mid-transmission.
func (r *Radio) ExportState() (RadioState, error) {
	if r.rx != nil || r.state == Receiving || r.state == Transmitting {
		return RadioState{}, fmt.Errorf("radio: radio %d in state %v, cannot snapshot", r.id, r.state)
	}
	return RadioState{
		State:  r.state,
		Killed: r.killed,
		Epoch:  r.epoch,
		WakeEv: sim.Ref(r.wakeEv),
		Meter:  r.meter.ExportState(),
	}, nil
}

// RestoreState overlays a snapshot onto a freshly attached radio,
// re-injecting the pending switch completion at its exact recorded position.
// The switch direction is recovered from the event label ("radio-off" or
// "radio-on"). The scheduler's queue must already have been reset.
func (r *Radio) RestoreState(st RadioState) error {
	var fn func()
	if st.WakeEv != nil {
		switch st.WakeEv.Label {
		case "radio-off":
			fn = r.offFn
		case "radio-on":
			fn = r.onFn
		default:
			return fmt.Errorf("radio: snapshot wake event has label %q, want radio-off or radio-on", st.WakeEv.Label)
		}
	}
	ev, err := r.medium.sched.InjectAt(st.WakeEv, fn)
	if err != nil {
		return err
	}
	if ev != nil {
		r.wakeEv = ev
	}
	r.state = st.State
	r.killed = st.Killed
	r.epoch = st.Epoch
	return r.meter.RestoreState(st.Meter)
}
