package core

import (
	"fmt"
	"sort"

	"dftmsn/internal/packet"
	"dftmsn/internal/routing"
	"dftmsn/internal/sim"
	"dftmsn/internal/simrand"

	"dftmsn/internal/mac"
	"dftmsn/internal/optimize"
	"dftmsn/internal/radio"
)

// NeighborState is one neighbour-table row in snapshot form. The live table
// is a map; snapshots carry it ID-sorted so the encoding is deterministic.
type NeighborState struct {
	ID      packet.NodeID
	Xi      float64
	History float64
	SeenAt  float64
}

// IdleSpanState is an active idle-span plan in snapshot form: the
// precomputed cycle boundaries and the τ-stream rewind point. Present only
// while a plan is running.
type IdleSpanState struct {
	Starts  []float64
	Listens []float64
	Ends    []float64
	Sigmas  []int
	RNGSnap simrand.State
}

// NodeState is one node's complete snapshot: routing, MAC, radio and energy
// state, the neighbour table behind the §4 optimizers, sleep and decay
// bookkeeping, lifecycle flags, the node's RNG stream, and every pending
// kernel event the node owns (cycle timer via the engine, radio switch via
// the radio, plus the plan-end, start-retry and sleep-wake events here).
type NodeState struct {
	ID       packet.NodeID
	Strategy routing.State
	Engine   mac.EngineState
	Radio    radio.RadioState
	Sleep    *optimize.SleepState // nil when sleeping is disabled

	Neighbors []NeighborState
	NbVersion uint64
	TauCached int
	TauForVer uint64

	Decay *sim.TickerState // nil under lazy decay or constant-metric strategies
	Stats NodeStats

	Started bool
	Stopped bool
	Crashed bool

	RNG simrand.State

	Plan      *IdleSpanState // nil when no idle-span plan is active
	PlanEndEv *sim.EventRef
	// Start-retry and sleep-wake events pending at the checkpoint. Usually
	// at most one each, but a crash-recover during a sleep can leave a stale
	// wake pending alongside a fresh one.
	RetryEvs []*sim.EventRef
	WakeEvs  []*sim.EventRef
}

// pendingRefs collects the EventRefs of the still-pending events in evs.
func pendingRefs(evs []*sim.Event) []*sim.EventRef {
	var out []*sim.EventRef
	for _, e := range evs {
		if ref := sim.Ref(e); ref != nil {
			out = append(out, ref)
		}
	}
	return out
}

// ExportState captures the node for a snapshot. It fails unless the node is
// quiescent — MAC engine between exchanges, radio not mid-frame. The export
// never mutates the node: lazy-decay epochs stay pending, the energy meter
// does not accrue, and the neighbour table is not TTL-pruned.
func (n *Node) ExportState() (NodeState, error) {
	exp, ok := n.strategy.(routing.Exporter)
	if !ok {
		return NodeState{}, fmt.Errorf("core: node %d strategy %s does not support snapshots", n.id, n.strategy.Name())
	}
	eng, err := n.engine.ExportState()
	if err != nil {
		return NodeState{}, fmt.Errorf("core: node %d: %w", n.id, err)
	}
	rad, err := n.radio.ExportState()
	if err != nil {
		return NodeState{}, fmt.Errorf("core: node %d: %w", n.id, err)
	}
	st := NodeState{
		ID:        n.id,
		Strategy:  exp.ExportState(),
		Engine:    eng,
		Radio:     rad,
		NbVersion: n.nbVersion,
		TauCached: n.tauCached,
		TauForVer: n.tauForVer,
		Stats:     n.stats,
		Started:   n.started,
		Stopped:   n.stopped,
		Crashed:   n.crashed,
		RNG:       n.rng.State(),
		RetryEvs:  pendingRefs(n.retryEvs),
		WakeEvs:   pendingRefs(n.wakeEvs),
	}
	if n.sleepCtl != nil {
		s := n.sleepCtl.ExportState()
		st.Sleep = &s
	}
	if len(n.neighbors) > 0 {
		st.Neighbors = make([]NeighborState, 0, len(n.neighbors))
		for id, nb := range n.neighbors {
			st.Neighbors = append(st.Neighbors, NeighborState{ID: id, Xi: nb.xi, History: nb.history, SeenAt: nb.seenAt})
		}
		sort.Slice(st.Neighbors, func(i, j int) bool { return st.Neighbors[i].ID < st.Neighbors[j].ID })
	}
	if n.decay != nil {
		d := n.decay.ExportState()
		st.Decay = &d
	}
	if n.plan.active {
		ref := sim.Ref(n.planEndEv)
		if ref == nil {
			return NodeState{}, fmt.Errorf("core: node %d has an active idle-span plan with no pending plan-end event", n.id)
		}
		p := &n.plan
		k := len(p.cycles)
		plan := &IdleSpanState{
			Starts:  make([]float64, k),
			Listens: make([]float64, k),
			Ends:    make([]float64, k),
			Sigmas:  make([]int, k),
			RNGSnap: append(simrand.State(nil), p.rngSnap...),
		}
		for i, c := range p.cycles {
			plan.Starts[i], plan.Listens[i], plan.Ends[i], plan.Sigmas[i] = c.start, c.listen, c.end, c.sigma
		}
		st.Plan = plan
		st.PlanEndEv = ref
	}
	return st, nil
}

// RestoreState overlays a snapshot onto a freshly built node with the same
// configuration, re-injecting every pending event the node owns at its
// exact recorded queue position. The scheduler's queue must already have
// been reset.
func (n *Node) RestoreState(st NodeState) error {
	if st.ID != n.id {
		return fmt.Errorf("core: snapshot is for node %d, restoring node %d", st.ID, n.id)
	}
	exp, ok := n.strategy.(routing.Exporter)
	if !ok {
		return fmt.Errorf("core: node %d strategy %s does not support snapshots", n.id, n.strategy.Name())
	}
	if err := exp.RestoreState(st.Strategy); err != nil {
		return fmt.Errorf("core: node %d: %w", n.id, err)
	}
	if err := n.engine.RestoreState(st.Engine); err != nil {
		return fmt.Errorf("core: node %d: %w", n.id, err)
	}
	if err := n.radio.RestoreState(st.Radio); err != nil {
		return fmt.Errorf("core: node %d: %w", n.id, err)
	}
	if (st.Sleep != nil) != (n.sleepCtl != nil) {
		return fmt.Errorf("core: node %d snapshot and node disagree on sleep control", n.id)
	}
	if n.sleepCtl != nil {
		if err := n.sleepCtl.RestoreState(*st.Sleep); err != nil {
			return fmt.Errorf("core: node %d: %w", n.id, err)
		}
	}
	clear(n.neighbors)
	for _, nb := range st.Neighbors {
		n.neighbors[nb.ID] = neighborInfo{xi: nb.Xi, history: nb.History, seenAt: nb.SeenAt}
	}
	n.nbVersion = st.NbVersion
	n.tauCached = st.TauCached
	n.tauForVer = st.TauForVer
	if (st.Decay != nil) != (n.decay != nil) {
		return fmt.Errorf("core: node %d snapshot and node disagree on the eager decay ticker", n.id)
	}
	if n.decay != nil {
		if err := n.decay.RestoreState(*st.Decay); err != nil {
			return fmt.Errorf("core: node %d: %w", n.id, err)
		}
	}
	n.stats = st.Stats
	n.started = st.Started
	n.stopped = st.Stopped
	n.crashed = st.Crashed
	n.rng.Restore(st.RNG)
	n.plan.active = false
	if st.Plan != nil {
		if st.PlanEndEv == nil {
			return fmt.Errorf("core: node %d snapshot has an idle-span plan with no plan-end event", n.id)
		}
		if n.planEndFn == nil {
			return fmt.Errorf("core: node %d snapshot has an idle-span plan but the node does not elide", n.id)
		}
		sp := st.Plan
		k := len(sp.Starts)
		if k == 0 || k > n.planCap() || len(sp.Listens) != k || len(sp.Ends) != k || len(sp.Sigmas) != k {
			return fmt.Errorf("core: node %d snapshot has a malformed idle-span plan (%d/%d/%d/%d cycles)",
				n.id, k, len(sp.Listens), len(sp.Ends), len(sp.Sigmas))
		}
		p := &n.plan
		p.reset(n.planCap())
		for i := range k {
			p.cycles = append(p.cycles, planCycle{start: sp.Starts[i], listen: sp.Listens[i], end: sp.Ends[i], sigma: sp.Sigmas[i]})
		}
		p.rngSnap = append(simrand.State(nil), st.Plan.RNGSnap...)
		ev, err := n.sched.InjectAt(st.PlanEndEv, n.planEndFn)
		if err != nil {
			return fmt.Errorf("core: node %d: %w", n.id, err)
		}
		n.planEndEv = ev
		p.active = true
	}
	n.retryEvs = n.retryEvs[:0]
	for _, ref := range st.RetryEvs {
		ev, err := n.sched.InjectAt(ref, n.startCycleFn)
		if err != nil {
			return fmt.Errorf("core: node %d: %w", n.id, err)
		}
		n.retryEvs = append(n.retryEvs, ev)
	}
	n.wakeEvs = n.wakeEvs[:0]
	for _, ref := range st.WakeEvs {
		ev, err := n.sched.InjectAt(ref, n.wakeFn)
		if err != nil {
			return fmt.Errorf("core: node %d: %w", n.id, err)
		}
		n.wakeEvs = append(n.wakeEvs, ev)
	}
	return nil
}

// Quiescent reports whether the node can be snapshotted right now: the MAC
// engine between exchanges and the radio not mid-frame.
func (n *Node) Quiescent() bool {
	return n.engine.Quiescent() && n.radio.State() != radio.Receiving && n.radio.State() != radio.Transmitting
}

// IdleSpanActive reports whether an idle-span plan is currently running —
// exposed for checkpoint tests that pin the mid-plan τ-stream rewind.
func (n *Node) IdleSpanActive() bool { return n.plan.active }
