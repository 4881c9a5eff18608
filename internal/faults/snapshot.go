package faults

import (
	"errors"
	"fmt"

	"dftmsn/internal/sim"
	"dftmsn/internal/simrand"
)

// ChainState is one churn chain's snapshot: the victim, which transition
// its pending event fires next, the chain's RNG stream, and the pending
// event's queue position.
type ChainState struct {
	Victim int
	Next   uint8
	RNG    simrand.State
	Ev     *sim.EventRef
}

// OutageState is one outage window's snapshot: the still-pending down/up
// transitions (nil once fired).
type OutageState struct {
	Down *sim.EventRef
	Up   *sim.EventRef
}

// KillState is one one-shot kill's snapshot: its still-pending shot (nil
// once fired). A struct rather than a bare reference because gob rejects
// nil slice elements; a nil field inside an element encodes fine.
type KillState struct {
	Ev *sim.EventRef
}

// State is an Injector's complete snapshot. Chains appear in arm order
// (the victim-selection permutation), outages and kills in plan order.
type State struct {
	Stats    Stats
	Churned  []bool
	SinkDown []int
	RNG      simrand.State
	Chains   []ChainState
	Outages  []OutageState
	Kills    []KillState
}

// ExportState captures the injector for a snapshot.
func (in *Injector) ExportState() State {
	st := State{
		Stats:    in.stats,
		Churned:  append([]bool(nil), in.churned...),
		SinkDown: append([]int(nil), in.sinkDown...),
		RNG:      in.rng.State(),
	}
	for _, ch := range in.chains {
		st.Chains = append(st.Chains, ChainState{
			Victim: ch.victim,
			Next:   ch.next,
			RNG:    ch.rng.State(),
			Ev:     sim.Ref(ch.ev),
		})
	}
	for _, w := range in.outages {
		st.Outages = append(st.Outages, OutageState{Down: sim.Ref(w.downEv), Up: sim.Ref(w.upEv)})
	}
	for _, k := range in.kills {
		st.Kills = append(st.Kills, KillState{Ev: sim.Ref(k.ev)})
	}
	return st
}

// RestoreState replaces the injector's state with a snapshot taken under
// the same plan, re-injecting every pending fault event at its exact
// recorded queue position. The scheduler's queue must already have been
// reset, dropping whatever the injector had scheduled.
func (in *Injector) RestoreState(st State) error {
	if len(st.Churned) != len(in.sensors) || len(st.SinkDown) != len(in.sinks) {
		return fmt.Errorf("faults: snapshot covers %d sensors / %d sinks, injector has %d / %d",
			len(st.Churned), len(st.SinkDown), len(in.sensors), len(in.sinks))
	}
	if len(st.Outages) != len(in.plan.SinkOutages) || len(st.Kills) != len(in.plan.Kills) {
		return fmt.Errorf("faults: snapshot has %d outages / %d kills, plan has %d / %d",
			len(st.Outages), len(st.Kills), len(in.plan.SinkOutages), len(in.plan.Kills))
	}
	if len(st.Chains) > 0 && in.plan.Churn == nil {
		return errors.New("faults: snapshot has churn chains but the plan has no churn clause")
	}
	in.stats = st.Stats
	copy(in.churned, st.Churned)
	copy(in.sinkDown, st.SinkDown)
	in.rng.Restore(st.RNG)
	in.chains = in.chains[:0]
	in.outages = in.outages[:0]
	in.kills = in.kills[:0]
	for _, cs := range st.Chains {
		if cs.Victim < 0 || cs.Victim >= len(in.sensors) {
			return fmt.Errorf("faults: snapshot churn victim %d out of range", cs.Victim)
		}
		// The chain RNG's position comes wholly from the snapshot; seed the
		// source arbitrarily and overwrite.
		ch := in.newChain(in.plan.Churn, cs.Victim, simrand.New(0))
		ch.rng.Restore(cs.RNG)
		ch.next = cs.Next
		var fn func()
		switch cs.Next {
		case chainCrash:
			fn = ch.crashFn
		case chainRecover:
			fn = ch.recoverFn
		case chainDone:
			if cs.Ev != nil {
				return fmt.Errorf("faults: snapshot chain for victim %d is done but has a pending event", cs.Victim)
			}
		default:
			return fmt.Errorf("faults: snapshot chain for victim %d has unknown phase %d", cs.Victim, cs.Next)
		}
		ev, err := in.sched.InjectAt(cs.Ev, fn)
		if err != nil {
			return fmt.Errorf("faults: restoring churn chain: %w", err)
		}
		ch.ev = ev
		in.chains = append(in.chains, ch)
	}
	for i, os := range st.Outages {
		o := in.plan.SinkOutages[i]
		targets := make([]int, 0, len(in.sinks))
		if o.Sink == -1 {
			for s := range in.sinks {
				targets = append(targets, s)
			}
		} else {
			targets = append(targets, o.Sink)
		}
		w := &outageWindow{}
		w.downFn = func() {
			for _, s := range targets {
				in.takeSinkDown(s)
			}
		}
		w.upFn = func() {
			for _, s := range targets {
				in.bringSinkUp(s)
			}
		}
		ev, err := in.sched.InjectAt(os.Down, w.downFn)
		if err != nil {
			return fmt.Errorf("faults: restoring outage: %w", err)
		}
		w.downEv = ev
		ev, err = in.sched.InjectAt(os.Up, w.upFn)
		if err != nil {
			return fmt.Errorf("faults: restoring outage end: %w", err)
		}
		w.upEv = ev
		in.outages = append(in.outages, w)
	}
	for i, ks := range st.Kills {
		k := in.plan.Kills[i]
		shot := &killShot{}
		shot.fn = func() { in.fireKill(k) }
		ev, err := in.sched.InjectAt(ks.Ev, shot.fn)
		if err != nil {
			return fmt.Errorf("faults: restoring kill: %w", err)
		}
		shot.ev = ev
		in.kills = append(in.kills, shot)
	}
	return nil
}
