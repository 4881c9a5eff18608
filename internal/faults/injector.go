package faults

import (
	"errors"
	"fmt"
	"math"

	"dftmsn/internal/packet"
	"dftmsn/internal/sim"
	"dftmsn/internal/simrand"
)

// Node is the view of a simulation node the injector controls. core.Node
// implements it; tests use lightweight fakes.
type Node interface {
	// Alive reports whether the node is currently up.
	Alive() bool
	// Crash takes the node down, optionally destroying its queued message
	// copies; the destroyed IDs are returned (nil when preserved).
	Crash(wipeQueue bool) []packet.MessageID
	// Recover brings a crashed node back up, optionally resetting its
	// learned routing state. It fails when the node cannot restart (e.g.
	// an exhausted battery).
	Recover(resetRouting bool) error
}

// Hooks receive injector events; nil fields are skipped. The scenario
// runner uses them to feed the resilience metrics.
type Hooks struct {
	// NodeCrashed fires after a sensor crash (churn or kill); wiped reports
	// whether the crash destroyed the buffer, and lost holds the message
	// copies that went with it (nil when the buffer was preserved).
	NodeCrashed func(now float64, sensor int, wiped bool, lost []packet.MessageID)
	// NodeRecovered fires after a churned sensor comes back up.
	NodeRecovered func(now float64, sensor int)
	// SinkDown and SinkUp bracket a sink outage.
	SinkDown func(now float64, sink int)
	SinkUp   func(now float64, sink int)
}

// Stats counts what the injector actually did.
type Stats struct {
	// Crashes counts sensor crashes (churn cycles plus kills).
	Crashes uint64
	// Recoveries counts churn reboots.
	Recoveries uint64
	// SinkOutages counts outage windows that began.
	SinkOutages uint64
	// CopiesLost sums message copies destroyed with crashed buffers.
	CopiesLost uint64
}

// Chain phases: which callback the chain's pending event fires next.
const (
	chainCrash   uint8 = iota // next event crashes the victim
	chainRecover              // next event reboots the victim
	chainDone                 // chain ended (victim died for another reason)
)

// churnChain is one victim's crash/recover loop. Its callbacks are bound
// once and its pending event handle retained, so snapshots can capture the
// chain mid-flight and restores can re-inject it at the exact queue
// position.
type churnChain struct {
	victim    int
	rng       *simrand.Source
	ev        *sim.Event
	next      uint8
	crashFn   func()
	recoverFn func()
}

// outageWindow is one sink-outage clause's pair of scheduled transitions.
type outageWindow struct {
	downEv *sim.Event
	upEv   *sim.Event
	downFn func()
	upFn   func()
}

// killShot is one kill clause's scheduled firing.
type killShot struct {
	ev *sim.Event
	fn func()
}

// Injector executes a validated Plan on the simulation scheduler. All
// randomness comes from the provided source, so runs are reproducible.
//
// Injector events live in the scheduler's isolated sequence band
// (AtIsolated): they do not perturb the ordinary event sequence numbers
// and lose same-instant ties against ordinary events, which keeps faulted
// results stable until a per-owner tie-break replaces the band.
type Injector struct {
	plan    Plan
	sched   *sim.Scheduler
	rng     *simrand.Source
	sensors []Node
	sinks   []Node
	hooks   Hooks
	stats   Stats

	// churned marks sensors currently down *by churn* (distinguishing them
	// from battery deaths and kills, which the injector must not revive).
	churned []bool
	// sinkDown counts overlapping outage windows per sink; a sink recovers
	// when its count returns to zero.
	sinkDown []int
	armed    bool

	chains  []*churnChain
	outages []*outageWindow
	kills   []*killShot
}

// NewInjector builds an injector for the plan. duration is the run horizon
// the plan was validated against; sensors and sinks are the controllable
// nodes in ID order. The injector is created unarmed; call Arm before the
// simulation runs.
func NewInjector(plan Plan, duration float64, sched *sim.Scheduler, rng *simrand.Source, sensors, sinks []Node, hooks Hooks) (*Injector, error) {
	if sched == nil || rng == nil {
		return nil, errors.New("faults: nil scheduler or random source")
	}
	if err := plan.Validate(duration, len(sinks)); err != nil {
		return nil, err
	}
	return &Injector{
		plan:     plan,
		sched:    sched,
		rng:      rng,
		sensors:  sensors,
		sinks:    sinks,
		hooks:    hooks,
		churned:  make([]bool, len(sensors)),
		sinkDown: make([]int, len(sinks)),
	}, nil
}

// Stats returns a snapshot of the injector counters.
func (in *Injector) Stats() Stats { return in.stats }

// Arm schedules every planned fault at its absolute plan time. It may be
// called once, before any fault time has passed (scenario.New arms at
// t=0).
func (in *Injector) Arm() error {
	if in.armed {
		return errors.New("faults: injector already armed")
	}
	in.armed = true
	// Order matters for determinism: churn consumes per-node streams from
	// in.rng at arm time; kills draw from in.rng at fire time, so a plan
	// that only contains kills draws its victims from an untouched stream.
	if c := in.plan.Churn; c != nil {
		if err := in.armChurn(c); err != nil {
			return err
		}
	}
	for _, o := range in.plan.SinkOutages {
		if err := in.armOutage(o); err != nil {
			return err
		}
	}
	for i := range in.plan.Kills {
		k := in.plan.Kills[i]
		shot := &killShot{}
		shot.fn = func() { in.fireKill(k) }
		ev, err := in.sched.AtIsolated(k.AtSeconds, "fault-kill", shot.fn)
		if err != nil {
			return fmt.Errorf("faults: scheduling kill: %w", err)
		}
		shot.ev = ev
		in.kills = append(in.kills, shot)
	}
	return nil
}

// newChain builds a chain for one victim with its callbacks bound.
func (in *Injector) newChain(c *Churn, victim int, rng *simrand.Source) *churnChain {
	ch := &churnChain{victim: victim, rng: rng}
	ch.crashFn = func() { in.chainCrash(c, ch) }
	ch.recoverFn = func() { in.chainRecover(c, ch) }
	return ch
}

// armChurn starts one crash/recover chain per churned sensor.
func (in *Injector) armChurn(c *Churn) error {
	n := len(in.sensors)
	count := int(math.Ceil(c.ChurnFraction() * float64(n)))
	if count > n {
		count = n
	}
	perm := in.rng.Split("churn/select").Perm(n)
	for _, idx := range perm[:count] {
		ch := in.newChain(c, idx, in.rng.Split(fmt.Sprintf("churn/%d", idx)))
		ev, err := in.sched.AtIsolated(c.StartSeconds+ch.rng.Exp(c.MTBFSeconds), "fault-crash", ch.crashFn)
		if err != nil {
			return fmt.Errorf("faults: scheduling churn: %w", err)
		}
		ch.ev = ev
		in.chains = append(in.chains, ch)
	}
	return nil
}

// chainCrash takes the chain's victim down and schedules its reboot.
func (in *Injector) chainCrash(c *Churn, ch *churnChain) {
	node := in.sensors[ch.victim]
	if !node.Alive() {
		// Dead for another reason (battery, kill): this chain ends.
		ch.next = chainDone
		return
	}
	lost := node.Crash(!c.PreserveBuffer)
	in.churned[ch.victim] = true
	in.stats.Crashes++
	in.stats.CopiesLost += uint64(len(lost))
	if in.hooks.NodeCrashed != nil {
		in.hooks.NodeCrashed(in.sched.Now(), ch.victim, !c.PreserveBuffer, lost)
	}
	ev, err := in.sched.AtIsolated(in.sched.Now()+ch.rng.Exp(c.MTTRSeconds), "fault-recover", ch.recoverFn)
	if err != nil {
		panic(fmt.Sprintf("faults: churn recovery in the past: %v", err))
	}
	ch.ev = ev
	ch.next = chainRecover
}

// chainRecover reboots the chain's victim and schedules its next crash.
func (in *Injector) chainRecover(c *Churn, ch *churnChain) {
	if !in.churned[ch.victim] {
		// A kill overrode the pending reboot: this chain ends.
		ch.next = chainDone
		return
	}
	in.churned[ch.victim] = false
	if err := in.sensors[ch.victim].Recover(!c.PreserveXi); err != nil {
		// Unrecoverable (e.g. battery exhausted mid-crash): chain ends.
		ch.next = chainDone
		return
	}
	in.stats.Recoveries++
	if in.hooks.NodeRecovered != nil {
		in.hooks.NodeRecovered(in.sched.Now(), ch.victim)
	}
	ev, err := in.sched.AtIsolated(in.sched.Now()+ch.rng.Exp(c.MTBFSeconds), "fault-crash", ch.crashFn)
	if err != nil {
		panic(fmt.Sprintf("faults: churn crash in the past: %v", err))
	}
	ch.ev = ev
	ch.next = chainCrash
}

// armOutage schedules one sink-down window.
func (in *Injector) armOutage(o Outage) error {
	targets := make([]int, 0, len(in.sinks))
	if o.Sink == -1 {
		for i := range in.sinks {
			targets = append(targets, i)
		}
	} else {
		targets = append(targets, o.Sink)
	}
	w := &outageWindow{}
	w.downFn = func() {
		for _, i := range targets {
			in.takeSinkDown(i)
		}
	}
	w.upFn = func() {
		for _, i := range targets {
			in.bringSinkUp(i)
		}
	}
	// Validate guaranteed StartSeconds < duration; the recovery may land
	// past the horizon, in which case the sink simply never comes back.
	ev, err := in.sched.AtIsolated(o.StartSeconds, "fault-sink-down", w.downFn)
	if err != nil {
		return fmt.Errorf("faults: scheduling outage: %w", err)
	}
	w.downEv = ev
	ev, err = in.sched.AtIsolated(o.StartSeconds+o.DurationSeconds, "fault-sink-up", w.upFn)
	if err != nil {
		return fmt.Errorf("faults: scheduling outage end: %w", err)
	}
	w.upEv = ev
	in.outages = append(in.outages, w)
	return nil
}

func (in *Injector) takeSinkDown(i int) {
	in.sinkDown[i]++
	if in.sinkDown[i] > 1 {
		return // already down under an overlapping window
	}
	in.stats.SinkOutages++
	in.sinks[i].Crash(false) // sinks have no sensor queue; nothing to wipe
	if in.hooks.SinkDown != nil {
		in.hooks.SinkDown(in.sched.Now(), i)
	}
}

func (in *Injector) bringSinkUp(i int) {
	in.sinkDown[i]--
	if in.sinkDown[i] > 0 {
		return // another window still holds it down
	}
	if err := in.sinks[i].Recover(false); err != nil {
		return
	}
	if in.hooks.SinkUp != nil {
		in.hooks.SinkUp(in.sched.Now(), i)
	}
}

// fireKill permanently fails a sensor fraction. The victim permutation is
// drawn at fire time from the injector stream.
func (in *Injector) fireKill(k Kill) {
	perm := in.rng.Perm(len(in.sensors))
	kill := int(k.Fraction * float64(len(in.sensors)))
	killed := 0
	for _, idx := range perm {
		if killed >= kill {
			break
		}
		node := in.sensors[idx]
		if !node.Alive() {
			continue // already down; the burst hits live nodes
		}
		lost := node.Crash(true)
		in.churned[idx] = false // a kill overrides any pending churn reboot
		in.stats.Crashes++
		in.stats.CopiesLost += uint64(len(lost))
		if in.hooks.NodeCrashed != nil {
			in.hooks.NodeCrashed(in.sched.Now(), idx, true, lost)
		}
		killed++
	}
}
