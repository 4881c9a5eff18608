package scenario

import (
	"errors"
	"fmt"
	"reflect"

	"dftmsn/internal/faults"
	"dftmsn/internal/packet"
	"dftmsn/internal/sim"
	"dftmsn/internal/snapshot"
)

// quiescent reports whether the simulation can be snapshotted right now: all
// nodes booted, no frames in flight, every MAC engine between exchanges.
func (s *Sim) quiescent() bool {
	if s.startsPending > 0 || s.medium.ActiveTransmissions() > 0 {
		return false
	}
	for _, n := range s.sinks {
		if !n.Quiescent() {
			return false
		}
	}
	for _, n := range s.sensors {
		if !n.Quiescent() {
			return false
		}
	}
	return true
}

// CheckpointAt steps the simulation to the first quiescent instant at or
// after virtual time k and exports a full snapshot there. It may be called
// repeatedly with increasing k before Run; Run then continues from wherever
// the last checkpoint left the clock, so a checkpointed run fires exactly
// the events an uncheckpointed one does.
func (s *Sim) CheckpointAt(k float64) (*snapshot.Snapshot, error) {
	if s.ran {
		return nil, errors.New("scenario: simulation already ran")
	}
	if err := s.ensureArmed(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.stepUntilQuiescent(k); err != nil {
		return nil, err
	}
	return s.exportSnapshot()
}

// stepUntilQuiescent fires events one at a time until the clock has reached
// k and the network is quiescent. Like runScheduler, an invariant-engine
// panic is recovered into an error carrying the event context.
func (s *Sim) stepUntilQuiescent(k float64) (err error) {
	if s.invEng != nil {
		defer func() {
			if r := recover(); r != nil {
				ep, ok := r.(*sim.EventPanic)
				if !ok {
					panic(r)
				}
				err = ep
			}
		}()
	}
	for !(float64(s.sched.Now()) >= k && s.quiescent()) {
		// The same cooperative probe that governs Run bounds checkpointing
		// loops, so a wall-clock deadline covers the whole job.
		if s.sched.Cancelled() {
			return fmt.Errorf("scenario: checkpoint stepping cancelled at %.1f virtual s: %w",
				float64(s.sched.Now()), sim.ErrCancelled)
		}
		next, ok := s.sched.NextEventTime()
		if !ok || float64(next) > s.cfg.DurationSeconds {
			return fmt.Errorf("scenario: no quiescent instant at or after %v s before the %v s horizon", k, s.cfg.DurationSeconds)
		}
		s.sched.Step()
	}
	return nil
}

// exportSnapshot captures the complete simulation state at the current
// (quiescent) instant. It never mutates the simulation.
func (s *Sim) exportSnapshot() (*snapshot.Snapshot, error) {
	if !s.quiescent() {
		return nil, errors.New("scenario: simulation is not quiescent")
	}
	cfgBytes, err := EncodeConfig(s.cfg)
	if err != nil {
		return nil, err
	}
	med, err := s.medium.ExportState()
	if err != nil {
		return nil, err
	}
	snap := &snapshot.Snapshot{
		Time:         float64(s.sched.Now()),
		Config:       cfgBytes,
		Kernel:       s.sched.ExportState(),
		MobilityTick: s.mobility.ExportState(),
		Medium:       med,
		Mobility:     s.walk.ExportState(),
		NextMsgID:    uint64(s.nextMsgID),
		Collector:    s.collector.ExportState(),
	}
	for _, n := range s.sinks {
		ns, err := n.ExportState()
		if err != nil {
			return nil, err
		}
		snap.Nodes = append(snap.Nodes, ns)
	}
	for _, n := range s.sensors {
		ns, err := n.ExportState()
		if err != nil {
			return nil, err
		}
		snap.Nodes = append(snap.Nodes, ns)
	}
	for i := range s.sensors {
		snap.Traffic = append(snap.Traffic, snapshot.TrafficState{
			RNG: s.trafficRngs[i].State(),
			Ev:  sim.Ref(s.arrivalEvs[i]),
		})
	}
	if s.injector != nil {
		st := s.injector.ExportState()
		snap.Injector = &st
	}
	if s.invEng != nil {
		st := s.invEng.ExportState()
		snap.Invariants = &st
	}
	if s.telem != nil {
		snap.Telemetry = &snapshot.TelemetryState{
			Registry: s.telem.Registry.ExportState(),
			Sampler:  s.sampler.ExportState(),
		}
	}
	return snap, nil
}

// Restore rebuilds a simulation from a snapshot and overlays the saved
// state; running it to the horizon is bit-identical to the run the snapshot
// was taken from. The customize hooks may reattach runtime-only config
// (recorders, cancellation and progress probes) that the snapshot cannot
// carry; they must not change anything that shapes the network or its
// randomness.
func Restore(snap *snapshot.Snapshot, customize ...func(*Config)) (*Sim, error) {
	if snap == nil {
		return nil, errors.New("scenario: nil snapshot")
	}
	cfg, err := DecodeConfig(snap.Config)
	if err != nil {
		return nil, err
	}
	for _, f := range customize {
		f(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.restoreFrom(snap, false); err != nil {
		return nil, err
	}
	return s, nil
}

// RestoreForPlan rebuilds a simulation from a snapshot with a different
// fault plan substituted — the instant-reproducer primitive: the common
// prefix up to the snapshot is skipped, and the continuation is
// bit-identical to a from-scratch run under the new plan (fault events live
// in the scheduler's isolated sequence band, so the substitution cannot
// perturb ordinary event order).
//
// Two guards keep that claim honest: the new plan must keep the snapshot's
// burst-loss clause (the burst process is continuous channel state baked
// into the snapshot), and both the original and the new plan's first
// discrete fault must lie strictly after the snapshot instant.
func RestoreForPlan(snap *snapshot.Snapshot, plan *faults.Plan, customize ...func(*Config)) (*Sim, error) {
	if snap == nil {
		return nil, errors.New("scenario: nil snapshot")
	}
	cfg, err := DecodeConfig(snap.Config)
	if err != nil {
		return nil, err
	}
	var origBurst, newBurst *faults.Burst
	if cfg.Faults != nil {
		origBurst = cfg.Faults.Burst
	}
	if plan != nil {
		newBurst = plan.Burst
	}
	if !reflect.DeepEqual(origBurst, newBurst) {
		return nil, errors.New("scenario: restored plan must keep the snapshot's burst-loss clause")
	}
	cfg.Faults = plan
	for _, f := range customize {
		f(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.restoreFrom(snap, true); err != nil {
		return nil, err
	}
	return s, nil
}

// Fork clones the simulation in memory at the current quiescent instant,
// without encoding: export the state, rebuild, overlay. The clone and the
// original then evolve independently and bit-identically.
func (s *Sim) Fork(customize ...func(*Config)) (*Sim, error) {
	snap, err := s.exportSnapshot()
	if err != nil {
		return nil, err
	}
	return Restore(snap, customize...)
}

// ForkForPlan clones the simulation in memory with a different fault plan
// substituted — the warm-start primitive sweep fault-future evaluation and
// chaos shrinking build on. See RestoreForPlan for the guards.
func (s *Sim) ForkForPlan(plan *faults.Plan, customize ...func(*Config)) (*Sim, error) {
	snap, err := s.exportSnapshot()
	if err != nil {
		return nil, err
	}
	return RestoreForPlan(snap, plan, customize...)
}

// restoreFrom overlays a snapshot onto a freshly built simulation. With
// freshPlan the snapshot's fault progress is discarded: the isolated
// sequence band restarts and the (new-plan) injector is left for Run or
// CheckpointAt to arm at the snapshot instant.
func (s *Sim) restoreFrom(snap *snapshot.Snapshot, freshPlan bool) error {
	if want := len(s.sinks) + len(s.sensors); len(snap.Nodes) != want {
		return fmt.Errorf("scenario: snapshot has %d nodes, simulation has %d", len(snap.Nodes), want)
	}
	if len(snap.Traffic) != len(s.sensors) {
		return fmt.Errorf("scenario: snapshot has %d traffic processes, simulation has %d sensors", len(snap.Traffic), len(s.sensors))
	}
	if !freshPlan && (snap.Injector != nil) != (s.injector != nil) {
		return errors.New("scenario: snapshot and simulation disagree on fault injection")
	}
	if (snap.Invariants != nil) != (s.invEng != nil) {
		return errors.New("scenario: snapshot and simulation disagree on the invariant engine")
	}
	if (snap.Telemetry != nil) != (s.telem != nil) {
		return errors.New("scenario: snapshot and simulation disagree on telemetry")
	}

	// Drop everything New scheduled (start jitter, initial arrivals, the
	// mobility tick, decay tickers) and overwrite the clock and counters;
	// every pending event of the snapshotted run is then re-injected at its
	// exact (time, seq) position by the component restores below.
	ks := snap.Kernel
	if freshPlan {
		// Restart the isolated band: the fresh injector's arm at the
		// snapshot instant allocates from the base, exactly like an arm at
		// t=0 under the new plan would have.
		ks.IsoSeq = 0
	}
	s.sched.ResetForRestore(ks)
	s.startsPending = 0

	if err := s.mobility.RestoreState(snap.MobilityTick); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if err := s.medium.RestoreState(snap.Medium); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	idx := 0
	for _, n := range s.sinks {
		if err := n.RestoreState(snap.Nodes[idx]); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		idx++
	}
	for _, n := range s.sensors {
		if err := n.RestoreState(snap.Nodes[idx]); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		idx++
	}
	if err := s.walk.RestoreState(snap.Mobility); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	// The medium's spatial index was built from the t=0 positions; re-sync
	// it with the restored ones (it is derived state, not snapshotted).
	s.medium.RefreshPositions()
	for i := range s.sensors {
		s.trafficRngs[i].Restore(snap.Traffic[i].RNG)
		ev, err := s.sched.InjectAt(snap.Traffic[i].Ev, s.arrivalFns[i])
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		s.arrivalEvs[i] = ev // nil when the sensor's process had ended
	}
	s.nextMsgID = packet.MessageID(snap.NextMsgID)
	if freshPlan && snap.Injector != nil && !snap.Injector.Pristine() {
		return errors.New("scenario: snapshot was taken after a fault fired; it cannot be re-based onto a different plan")
	}
	if s.injector != nil {
		// New armed the injector at construction; its events were just
		// dropped with the queue. Rewind it, then either overlay the
		// snapshot's fault progress or (fresh plan) re-arm at the snapshot
		// instant — the rewound stream re-draws the exact absolute fault
		// times an arm at t=0 would have, and any draw landing at or before
		// the snapshot (a fault the from-scratch run would already have
		// fired) surfaces as a schedule-in-the-past error here.
		s.injector.ResetForRestore()
		if freshPlan {
			if err := s.injector.Arm(); err != nil {
				return fmt.Errorf("scenario: new plan acts before the %v s snapshot: %w", snap.Time, err)
			}
		} else if err := s.injector.RestoreState(*snap.Injector); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	s.collector.RestoreState(snap.Collector)
	if s.invEng != nil {
		if err := s.invEng.RestoreState(*snap.Invariants); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if s.telem != nil {
		if err := s.telem.Registry.RestoreState(snap.Telemetry.Registry); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		s.sampler.RestoreState(snap.Telemetry.Sampler)
	}
	return nil
}
