// Package core implements the DFT-MSN protocol node — the paper's primary
// contribution assembled from the substrates: the working-cycle loop
// (§3.2), the adaptive listening period and contention window driven by the
// §4.2/§4.3 optimizers, the §4.1 adaptive periodic sleeping, the Eq. 1
// timeout decay, and the neighbour table that feeds the optimizers.
//
// A Node is routing-agnostic: its forwarding behaviour comes from a
// routing.Strategy (FAD for the paper's scheme, ZBR/Direct/Epidemic for
// baselines, Sink for sink nodes). Scheme presets that mirror the paper's
// §5 protocol variants (OPT, NOOPT, NOSLEEP, ZBR) live in scheme.go.
package core

import (
	"errors"
	"fmt"
	"sort"

	"dftmsn/internal/energy"
	"dftmsn/internal/geo"
	"dftmsn/internal/mac"
	"dftmsn/internal/optimize"
	"dftmsn/internal/packet"
	"dftmsn/internal/radio"
	"dftmsn/internal/routing"
	"dftmsn/internal/sim"
	"dftmsn/internal/simrand"
	"dftmsn/internal/telemetry"
)

// Params holds the node-level protocol parameters (§4 optimizations and
// their fixed-parameter fallbacks).
type Params struct {
	// AdaptiveTau enables the Eq. 13 search for the minimum τ_max; when
	// false TauMaxFixed is used.
	AdaptiveTau bool
	// TauMaxFixed is the listening-period bound, in slots, without
	// optimization (NOOPT).
	TauMaxFixed int
	// TauMaxCap bounds the Eq. 13 search.
	TauMaxCap int

	// AdaptiveWindow enables the Eq. 14 search for the minimum contention
	// window; when false WindowFixed is used.
	AdaptiveWindow bool
	// WindowFixed is the contention window, in slots, without optimization.
	WindowFixed int
	// WindowCap bounds the Eq. 14 search.
	WindowCap int

	// CollisionTarget is the collision-probability bound H used by both
	// searches (§4.2, §4.3).
	CollisionTarget float64

	// NeighborTTL is how long overheard ξ/history gossip stays in the
	// neighbour table, in seconds.
	NeighborTTL float64

	// SleepEnabled turns §4.1 periodic sleeping on.
	SleepEnabled bool
	// AdaptiveSleep selects the Eq. 6 adaptive period; when false the node
	// sleeps for SleepFixed after L idle cycles.
	AdaptiveSleep bool
	// SleepFixed is the non-adaptive sleeping period in seconds.
	SleepFixed float64
	// Sleep configures the Eq. 4-8 controller (S, L, H, TMin, FImportant).
	Sleep optimize.SleepConfig

	// DecayInterval is the Eq. 1 timeout check period in seconds.
	DecayInterval float64

	// EagerDecay forces the per-node decay ticker even for strategies that
	// support lazy closed-form decay, and disables idle-cycle coalescing —
	// the control arm for the event-elision differential tests, mirroring
	// radio.Config.LinearScan. Set from scenario.Config.EagerDecay, so it
	// is not part of the config encoding.
	EagerDecay bool `json:"-"`

	// BatteryJoules is the node's energy budget; once its radio has
	// consumed this much the node dies (radio permanently off). Zero
	// means unlimited — the paper's evaluation does not exhaust
	// batteries, but lifetime is its §4.1 motivation, so the budget is
	// provided as an extension (see the lifetime experiment). Set from
	// scenario.Config.BatteryJoules, so it is not part of the config
	// encoding.
	BatteryJoules float64 `json:"-"`
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.TauMaxFixed < 1 || p.TauMaxCap < 1 || p.WindowFixed < 1 || p.WindowCap < 1 {
		return fmt.Errorf("core: slot parameters must be >= 1: %+v", p)
	}
	if p.CollisionTarget <= 0 || p.CollisionTarget >= 1 {
		return fmt.Errorf("core: collision target %v out of (0,1)", p.CollisionTarget)
	}
	if p.NeighborTTL <= 0 {
		return fmt.Errorf("core: neighbour TTL %v must be positive", p.NeighborTTL)
	}
	if p.DecayInterval <= 0 {
		return fmt.Errorf("core: decay interval %v must be positive", p.DecayInterval)
	}
	if p.SleepEnabled {
		if err := p.Sleep.Validate(); err != nil {
			return err
		}
		if !p.AdaptiveSleep && p.SleepFixed <= 0 {
			return fmt.Errorf("core: fixed sleep %v must be positive", p.SleepFixed)
		}
	}
	if p.BatteryJoules < 0 {
		return fmt.Errorf("core: battery %v must be >= 0", p.BatteryJoules)
	}
	return nil
}

// neighborInfo is one neighbour-table entry built from overheard RTS/CTS.
type neighborInfo struct {
	id      packet.NodeID
	xi      float64
	history float64
	seenAt  float64
}

// NodeStats counts node-level events beyond the MAC engine's counters.
type NodeStats struct {
	Sleeps       uint64
	SleepSeconds float64
	TauMaxUsed   int // last τ_max in effect
	WindowUsed   int // last W in effect
	// DiedAt is the virtual time the node went down (battery, kill, or
	// crash); negative while the node is alive.
	DiedAt float64
	// Crashes and Recoveries count fault-injection churn cycles.
	Crashes    uint64
	Recoveries uint64
}

// Node is one DFT-MSN node (sensor or sink) running the cross-layer
// protocol.
type Node struct {
	id       packet.NodeID
	sched    *sim.Scheduler
	medium   *radio.Medium
	engine   *mac.Engine
	radio    *radio.Radio
	strategy routing.Strategy
	params   Params
	rng      *simrand.Source
	rec      telemetry.Recorder

	sleepCtl  *optimize.SleepController
	neighbors []neighborInfo // one entry per ID; pruned in place on expiry
	nbVersion uint64         // bumped on table change
	tauCached int
	tauForVer uint64
	windows   []int // MinWindow memo by replier count; 0 = not solved yet

	decay   *sim.Ticker     // eager decay arm (nil under lazy decay)
	lazy    routing.Decayer // lazy decay arm (nil under eager decay)
	macCfg  mac.Config
	stats   NodeStats
	started bool
	stopped bool
	crashed bool // down by Crash (recoverable), not battery death

	// Event elision: when elide is set, provably idle listen-only cycles
	// coalesce into a single plan-end event (see planIdleSpan).
	elide     bool
	plan      idleSpan
	planEndEv *sim.Event
	planEndFn func()

	startCycleFn func() // pre-bound n.startCycle for retry scheduling
	wakeFn       func() // pre-bound end-of-sleep wake callback
	// Retained start-retry and sleep-wake handles for snapshots. These are
	// slices, not single events: a crash-recover during a sleep can leave a
	// stale wake pending while a new one is scheduled, and both fire.
	retryEvs []*sim.Event
	wakeEvs  []*sim.Event
	xiBuf    []float64
}

// Idle-span plan caps: a plan covers at most planMaxCycles cycles and at
// most planMaxSeconds of virtual time, keeping the cycle-termination
// invariant's liveness budget (60 s) comfortably green while bounding the
// drawn-ahead τ tail an early materialize must rewind.
const (
	planMaxCycles  = 32
	planMaxSeconds = 20.0
)

// idleSpan is one coalesced run of planned listen-only cycles — the
// event-elision fast path. Boundaries are precomputed with the exact
// floating-point steps the eager arm's timer chain would take; the node
// schedules a single plan-end event and replays or abandons the span when
// the world intervenes (frame capture, audible carrier, traffic, faults).
type idleSpan struct {
	active  bool
	cycles  []planCycle
	rngSnap simrand.Mark
}

// planCycle is one planned listen-only cycle of an idle span.
type planCycle struct {
	start  float64 // cycle start time s_i
	listen float64 // listen-expiry time l_i = s_i + τ_i·slot
	end    float64 // cycle-end time e_i = l_i + R·slot; s_{i+1} = e_i
	sigma  int     // σ_i the τ_i was drawn from (for stream rewind)
}

// reset empties the cycle list for a new plan. The slice is reused across
// spans; it is made at capacity (the node's planCap) on first use, so a
// plan never append-doubles and a node that never plans never pays for
// it.
func (p *idleSpan) reset(capacity int) {
	if p.cycles == nil {
		p.cycles = make([]planCycle, 0, capacity)
	}
	p.cycles = p.cycles[:0]
}

var _ mac.Policy = (*Node)(nil)

// NewNode assembles a node: it attaches a radio to the medium, builds the
// MAC engine with the node itself as policy, and wires the sleep
// controller. position must stay valid for the run; profile is the radio
// energy profile.
func NewNode(
	id packet.NodeID,
	sched *sim.Scheduler,
	medium *radio.Medium,
	macCfg mac.Config,
	params Params,
	strategy routing.Strategy,
	position func() geo.Point,
	profile energy.Profile,
	rng *simrand.Source,
	rec telemetry.Recorder,
) (*Node, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if strategy == nil || rng == nil {
		return nil, errors.New("core: nil strategy or rng")
	}
	if rec == nil {
		rec = telemetry.Nop{}
	}
	n := &Node{
		id:        id,
		sched:     sched,
		medium:    medium,
		strategy:  strategy,
		params:    params,
		macCfg:    macCfg,
		rng:       rng,
		rec:       rec,
		tauForVer: ^uint64(0),
	}
	n.stats.DiedAt = -1
	n.startCycleFn = n.startCycle
	n.wakeFn = func() {
		if n.stopped {
			return
		}
		if err := n.radio.Wake(); err != nil {
			// Unreachable in normal operation; try a fresh cycle anyway.
			n.startCycle()
		}
	}
	if params.SleepEnabled {
		ctl, err := optimize.NewSleepController(params.Sleep)
		if err != nil {
			return nil, err
		}
		n.sleepCtl = ctl
	}
	eng, err := mac.New(id, sched, medium, macCfg, n, rng.Split("mac"), n.onCycleEnd)
	if err != nil {
		return nil, err
	}
	n.engine = eng
	r, err := medium.Attach(id, position, eng, profile, radio.Idle)
	if err != nil {
		return nil, err
	}
	if err := eng.Bind(r); err != nil {
		return nil, err
	}
	eng.SetAwakeFunc(n.onAwake)
	n.radio = r
	// Decay arm selection: strategies whose soft state decays on a period
	// either run a per-node ticker (the eager control arm) or evaluate the
	// identical epoch sequence in closed form on read (the lazy arm).
	// Strategies with constant metrics schedule no decay events either way.
	if d, ok := strategy.(routing.Decayer); ok {
		if params.EagerDecay {
			n.decay = sim.NewTicker(sched, params.DecayInterval, "", d.OnDecayTick)
		} else {
			n.lazy = d
			d.EnableLazyDecay(sched.Now, params.DecayInterval)
		}
	}
	// Idle-cycle coalescing needs every per-cycle side effect to be
	// replayable: no eager decay ticker (its epochs are kernel events the
	// plan would skip) and no battery bound (checkBattery reads the meter
	// at each boundary).
	n.elide = !params.EagerDecay && n.decay == nil && params.BatteryJoules == 0
	if n.elide {
		n.planEndFn = n.planEnd
		r.SetPreCapture(func() { n.materialize(n.sched.Now()) })
	}
	return n, nil
}

// decayStart begins the node's decay epoch sequence in whichever arm is
// wired (per-node ticker or closed-form ledger).
func (n *Node) decayStart() {
	if n.decay != nil {
		n.decay.Start()
	} else if n.lazy != nil {
		n.lazy.StartLazyDecay(n.sched.Now())
	}
}

// decayStop halts the decay epoch sequence; under lazy decay pending
// epochs settle through now and the value freezes.
func (n *Node) decayStop() {
	if n.decay != nil {
		n.decay.Stop()
	} else if n.lazy != nil {
		n.lazy.StopLazyDecay(n.sched.Now())
	}
}

// ID returns the node identifier.
func (n *Node) ID() packet.NodeID { return n.id }

// Strategy returns the node's routing strategy.
func (n *Node) Strategy() routing.Strategy { return n.strategy }

// Radio returns the node's radio (for energy metering).
func (n *Node) Radio() *radio.Radio { return n.radio }

// Engine returns the node's MAC engine (for statistics).
func (n *Node) Engine() *mac.Engine { return n.engine }

// Stats returns node-level counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Start begins the node's working-cycle loop and the Eq. 1 decay ticker.
func (n *Node) Start() error {
	if n.started {
		return errors.New("core: node already started")
	}
	n.started = true
	if !n.Alive() {
		// Crashed or killed before its scheduled start: a crashed node
		// boots when Recover runs; a killed one never does.
		return nil
	}
	n.decayStart()
	n.startCycle()
	return nil
}

// Stop halts the node at the next cycle boundary (the current cycle, if
// any, still completes; no further cycles or sleeps are scheduled). An
// idle-span plan materializes first: its later cycles must not run.
func (n *Node) Stop() {
	n.materialize(n.sched.Now())
	n.stopped = true
	n.decayStop()
}

// Generate inserts a locally sensed message (called by the traffic
// process). It reports whether the message was accepted into the queue.
// An idle-span plan materializes first: with data queued, the resumed
// cycle's listen expiry re-checks HasData and takes the attempt path.
func (n *Node) Generate(id packet.MessageID, payloadBits int) bool {
	now := n.sched.Now()
	n.materialize(now)
	ok := n.strategy.Generate(id, now, payloadBits)
	typ := telemetry.EvGen
	if !ok {
		typ = telemetry.EvGenDrop
	}
	n.rec.Record(telemetry.Event{Time: now, Node: n.id, Type: typ, Msg: id})
	return ok
}

// startCycle draws the §4.2 adaptive listening period and starts one MAC
// cycle — or, when the node can prove the coming cycles are idle, plans a
// coalesced span of them instead.
func (n *Node) startCycle() {
	if n.stopped {
		return
	}
	tauMax := n.currentTauMax()
	n.stats.TauMaxUsed = tauMax
	if n.elide && n.planIdleSpan(tauMax) {
		return
	}
	sigma := optimize.Sigma(n.strategy.Xi(), tauMax)
	tau := n.rng.SlotIn(sigma)
	if err := n.engine.StartCycle(tau); err != nil {
		// The radio is mid-switch or otherwise unavailable: retry shortly.
		n.retryEvs = n.rearm(n.retryEvs, n.params.DecayInterval/100+1e-3, n.startCycleFn)
	}
}

// planIdleSpan tries to coalesce the node's next run of provably idle
// listen-only cycles into a single plan-end event, reporting whether a
// plan was installed.
//
// Eligibility: nothing queued to send (an idle cycle never transmits), the
// radio idle with no carrier audible (a busy carrier at the listen expiry
// would end the cycle Deferred, a different cycle shape), and — static,
// folded into n.elide — no eager decay ticker and no battery bound. While
// a plan runs nothing observable originates at this node: each boundary's
// upkeep sees an all-false Outcome, ξ decays in closed form, the radio
// stays Idle, and no telemetry is due. Anything originating elsewhere
// materializes the plan before becoming observable: a frame starting in
// range (radio pre-capture hook), mobility carrying the node into an
// in-flight frame's carrier range (PollCarrier after mobility steps),
// traffic insertion (Generate), and fault injection (Stop/Crash).
//
// The τ values for all planned cycles are drawn up front, in cycle order,
// from the same stream with the same σ arguments the eager arm would use
// at each cycle start — so a completed plan leaves the stream exactly
// where the eager arm's per-cycle draws would have. An early materialize
// rewinds to the snapshot and re-draws only the consumed prefix.
func (n *Node) planIdleSpan(tauMax int) bool {
	if n.strategy.HasData() || n.radio.State() != radio.Idle || n.radio.CarrierBusy() {
		return false
	}
	maxK := n.planCap()
	if n.sleepCtl != nil {
		// The plan may extend at most to the cycle whose completion trips
		// ShouldSleep: that boundary must take the real endCycle path so
		// the sleep decision and EvSleep happen exactly as in the eager
		// arm.
		maxK = min(maxK, n.sleepCtl.Config().L-n.sleepCtl.IdleCycles())
	}
	if maxK < 1 {
		return false
	}
	if err := n.engine.BeginCoalesced(); err != nil {
		return false
	}
	now := n.sched.Now()
	p := &n.plan
	p.reset(n.planCap())
	p.rngSnap = n.rng.Mark()
	slot := n.macCfg.SlotTime
	listen := float64(n.macCfg.ReceiverListenSlots) * slot
	start := now
	for k := 0; k < maxK; k++ {
		xi := n.strategy.Xi()
		if n.lazy != nil {
			xi = n.lazy.XiAt(start)
		}
		sigma := optimize.Sigma(xi, tauMax)
		tau := n.rng.SlotIn(sigma)
		// Stepwise, never factored: the eager timer chain accumulates
		// l = s + τ·slot and e = l + R·slot one addition at a time, and the
		// boundaries must match it to the last ulp.
		l := start + float64(tau)*slot
		e := l + listen
		p.cycles = append(p.cycles, planCycle{start: start, listen: l, end: e, sigma: sigma})
		start = e
		if e-now >= planMaxSeconds {
			break
		}
	}
	ev, err := n.sched.RescheduleAt(n.planEndEv, p.cycles[len(p.cycles)-1].end, "idle-span", n.planEndFn)
	if err != nil {
		// Unreachable: every plan end is strictly in the future.
		panic(fmt.Sprintf("core: idle-span end in the past: %v", err))
	}
	n.planEndEv = ev
	p.active = true
	return true
}

// planCap bounds the cycles of any plan this node makes: the cycle cap,
// or the sleep threshold L when smaller, since a plan stops at the cycle
// whose completion trips ShouldSleep. planIdleSpan narrows it by the idle
// cycles already counted; RestoreState rejects a plan longer than it.
func (n *Node) planCap() int {
	if n.sleepCtl != nil {
		return min(planMaxCycles, n.sleepCtl.Config().L)
	}
	return planMaxCycles
}

// replayBoundary applies the state updates of one fully elided idle-cycle
// boundary at time t, in the exact order the eager arm's endCycle →
// onCycleEnd → startCycle chain applies them. The battery check is absent
// by the elide gate; ShouldSleep cannot trip by the plan-length bound.
func (n *Node) replayBoundary(t float64) {
	n.strategy.OnCycleEnd(mac.Outcome{}, t)
	if n.sleepCtl != nil {
		n.sleepCtl.RecordCycle(false, false)
	}
	n.engine.ReplayCycles(1, t)
}

// materialize abandons the active idle-span plan at the current instant:
// boundaries strictly before now replay their upkeep, the τ stream rewinds
// to exactly the draws the eager arm has made by now, and the engine
// resumes the in-progress cycle with its timer at the exact eager expiry.
// A boundary at exactly now is not replayed — the resumed timer (or the
// plan-end event) fires at now and takes the real code path. No-op when no
// plan is active, so every caller may invoke it unconditionally.
func (n *Node) materialize(now float64) {
	p := &n.plan
	if !p.active {
		return
	}
	p.active = false
	n.sched.Cancel(n.planEndEv)
	var elided uint64
	i := 0
	for ; p.cycles[i].end < now; i++ {
		n.replayBoundary(p.cycles[i].end)
		elided += 2 // the cycle's listen timer and end timer
	}
	// Rewind and re-consume the τ draws for cycles 0..i — the ones the
	// eager arm has made by now; the drawn-ahead tail is discarded.
	n.rng.Rewind(p.rngSnap)
	for _, c := range p.cycles[:i+1] {
		n.rng.SlotIn(c.sigma)
	}
	c := p.cycles[i]
	var err error
	if now <= c.listen {
		err = n.engine.ResumeListen(c.start, c.listen)
	} else {
		elided++ // the cycle's listen timer already elapsed unobserved
		err = n.engine.ResumeListenOnly(c.start, c.end)
	}
	if err != nil {
		panic("core: idle-span resume failed: " + err.Error())
	}
	n.sched.CountElided(elided)
}

// planEnd fires at the last planned cycle's end: interior boundaries
// replay, and the final cycle finishes through the real endCycle path so
// the sleep-or-continue decision runs the exact eager code.
func (n *Node) planEnd() {
	p := &n.plan
	if !p.active {
		return
	}
	p.active = false
	last := len(p.cycles) - 1
	for _, c := range p.cycles[:last] {
		n.replayBoundary(c.end)
	}
	// Each interior boundary elides a listen timer and an end timer; the
	// final cycle's listen timer is also elided, while its end timer is
	// this very event.
	n.sched.CountElided(uint64(2*last + 1))
	if err := n.engine.FinishCoalesced(); err != nil {
		panic("core: plan end outside coalesced mode: " + err.Error())
	}
}

// PollCarrier materializes the idle-span plan when a carrier has become
// audible — the driver calls it after mobility steps taken while frames
// are in flight, since a busy carrier at the listen expiry ends the cycle
// Deferred rather than idle.
func (n *Node) PollCarrier() {
	if n.plan.active && n.radio.CarrierBusy() {
		n.materialize(n.sched.Now())
	}
}

// FinalizeElision settles the node's elision accounting at the simulation
// horizon, after the scheduler drains: boundaries of a still-active plan
// that the eager arm would have fired by the horizon (at <= horizon, the
// scheduler's own fire rule) replay and count, and the closed-form decay
// ledger settles to the horizon and is harvested. Call exactly once per
// run; safe on eager-arm nodes, where it is a no-op.
func (n *Node) FinalizeElision(horizon float64) {
	var elided uint64
	p := &n.plan
	if p.active {
		p.active = false
		n.sched.Cancel(n.planEndEv)
		i := 0
		for ; i < len(p.cycles) && p.cycles[i].end <= horizon; i++ {
			n.replayBoundary(p.cycles[i].end)
			elided += 2
		}
		if i < len(p.cycles) && p.cycles[i].listen <= horizon {
			elided++ // listen timer of the cycle straddling the horizon
		}
	}
	if n.lazy != nil {
		n.lazy.StopLazyDecay(horizon)
		elided += n.lazy.ElidedDecayTicks()
	}
	n.sched.CountElided(elided)
}

// Alive reports whether the node's battery (if bounded) still has charge
// and the node is not crashed.
func (n *Node) Alive() bool { return n.stats.DiedAt < 0 }

// Crash fails the node immediately: the current cycle is abandoned, all
// timers stop, and the radio goes dark. A later Recover reboots it; fault
// injection's permanent kills are crashes that never recover. wipeQueue
// destroys the queued message copies (the crash took RAM with it) and
// returns their IDs; with wipeQueue false the buffer survives the reboot
// (copies kept in flash).
func (n *Node) Crash(wipeQueue bool) []packet.MessageID {
	if !n.Alive() {
		return nil
	}
	now := n.sched.Now()
	n.materialize(now)
	n.stats.DiedAt = now
	n.stats.Crashes++
	n.crashed = true
	n.stopped = true
	n.decayStop()
	n.engine.Abort()
	n.radio.Kill()
	var lost []packet.MessageID
	if wipeQueue {
		lost = n.strategy.WipeQueue()
	}
	n.rec.Record(telemetry.Event{Time: now, Node: n.id, Type: telemetry.EvCrash, Count: int32(len(lost))})
	return lost
}

// Recover reboots a crashed node: the radio powers back up and the
// working-cycle loop resumes. resetRouting clears learned soft state (ξ,
// history) as a cold boot would. It fails for nodes that are alive, died
// for good (battery), or whose battery cannot sustain a reboot.
func (n *Node) Recover(resetRouting bool) error {
	if n.Alive() {
		return errors.New("core: recover of a live node")
	}
	if !n.crashed {
		return errors.New("core: node is down for good (battery)")
	}
	now := n.sched.Now()
	if n.params.BatteryJoules > 0 && n.radio.Meter().TotalJoules(now) >= n.params.BatteryJoules {
		return errors.New("core: battery exhausted; node cannot reboot")
	}
	if err := n.radio.Revive(); err != nil {
		return err
	}
	n.crashed = false
	n.stats.DiedAt = -1
	n.stats.Recoveries++
	n.stopped = false
	if resetRouting {
		n.strategy.ResetRouting()
	}
	n.rec.Record(telemetry.Event{Time: now, Node: n.id, Type: telemetry.EvReboot})
	if !n.started {
		// The node's scheduled Start has not fired yet; it boots normally.
		return nil
	}
	n.decayStart()
	// The revived radio is Off; waking it re-enters the cycle loop via
	// OnAwake → startCycle.
	return n.radio.Wake()
}

// checkBattery retires the node once its energy budget is spent.
// It reports whether the node died.
func (n *Node) checkBattery(now float64) bool {
	if n.params.BatteryJoules <= 0 || !n.Alive() {
		return !n.Alive()
	}
	if n.radio.Meter().TotalJoules(now) < n.params.BatteryJoules {
		return false
	}
	n.stats.DiedAt = now
	n.stopped = true
	n.decayStop()
	n.rec.Record(telemetry.Event{Time: now, Node: n.id, Type: telemetry.EvDied, Value: n.params.BatteryJoules})
	// Power the radio down for good; ignore failure if mid-switch.
	_ = n.radio.Sleep()
	return true
}

// onCycleEnd is the engine's cycle callback: apply per-cycle upkeep, then
// decide between sleeping and starting the next cycle (§3.2, §4.1).
func (n *Node) onCycleEnd(out mac.Outcome) {
	now := n.sched.Now()
	n.strategy.OnCycleEnd(out, now)
	if n.checkBattery(now) {
		return
	}
	if n.stopped {
		return
	}
	if n.sleepCtl != nil {
		active := out.Sent || out.Received
		n.sleepCtl.RecordCycle(out.Sent, active)
		if n.sleepCtl.ShouldSleep() {
			n.goToSleep(now)
			return
		}
	}
	n.startCycle()
}

// goToSleep turns the radio off for the §4.1 period and schedules the wake.
func (n *Node) goToSleep(now float64) {
	var dur float64
	if n.params.AdaptiveSleep {
		alpha := n.sleepCtl.Alpha(n.strategy.ImportantCount(), n.strategy.QueueCap())
		dur = n.sleepCtl.SleepDuration(alpha)
	} else {
		dur = n.params.SleepFixed
	}
	if err := n.radio.Sleep(); err != nil {
		// Radio busy (should not happen at cycle end): skip this sleep.
		n.startCycle()
		return
	}
	n.sleepCtl.ResetIdle()
	n.stats.Sleeps++
	n.stats.SleepSeconds += dur
	n.rec.Record(telemetry.Event{Time: now, Node: n.id, Type: telemetry.EvSleep, Value: dur})
	n.wakeEvs = n.rearm(n.wakeEvs, dur, n.wakeFn)
}

// rearm schedules fn d seconds from now and retains its handle in evs,
// pruning handles that have already fired so the slice stays bounded by
// the number of genuinely concurrent events (in practice one, occasionally
// two across a crash). The first fired handle is reused through
// Reschedule, which consumes the same single sequence number as After and
// leaves the firing order unchanged, but allocates no Event.
func (n *Node) rearm(evs []*sim.Event, d float64, fn func()) []*sim.Event {
	var spare *sim.Event
	out := evs[:0]
	for _, e := range evs {
		switch {
		case e.Pending():
			out = append(out, e)
		case spare == nil:
			spare = e
		}
	}
	return append(out, n.sched.Reschedule(spare, d, "", fn))
}

// onAwake is called when the radio finishes powering on.
func (n *Node) onAwake() {
	n.rec.Record(telemetry.Event{Time: n.sched.Now(), Node: n.id, Type: telemetry.EvWake})
	n.startCycle()
}

// currentTauMax returns the Eq. 13 minimal τ_max over the fresh neighbour
// set, or the fixed value when optimization is off. The search result is
// cached until the neighbour table changes.
func (n *Node) currentTauMax() int {
	if !n.params.AdaptiveTau {
		return n.params.TauMaxFixed
	}
	if n.tauForVer == n.nbVersion {
		return n.tauCached
	}
	xis := append(n.xiBuf[:0], n.strategy.Xi())
	for _, nb := range n.liveNeighbors() {
		xis = append(xis, nb.xi)
	}
	// The collision probability multiplies and sums in slice order, so the
	// last-ulp rounding — and occasionally the τ_max threshold crossing —
	// depends on the order of ξ. A canonical order makes the answer a
	// function of the ξ set alone, whatever order the table holds it in.
	sort.Float64s(xis)
	n.xiBuf = xis
	tau, _ := optimize.MinTauMax(xis, n.params.CollisionTarget, n.params.TauMaxCap)
	n.tauCached = tau
	n.tauForVer = n.nbVersion
	return tau
}

// currentWindow returns the Eq. 14 minimal contention window for the
// expected number of qualified repliers, or the fixed value.
func (n *Node) currentWindow() int {
	if !n.params.AdaptiveWindow {
		return n.params.WindowFixed
	}
	mine := n.strategy.Xi()
	repliers := 0
	for _, nb := range n.liveNeighbors() {
		if nb.xi > mine || nb.history > mine {
			repliers++
		}
	}
	if repliers < 1 {
		repliers = 1
	}
	return n.windowFor(repliers)
}

// windowFor returns optimize.MinWindow(repliers, CollisionTarget,
// WindowCap). Target and cap are fixed per node, so each replier count is
// solved once; counts above the cap leave MinWindow an empty search and are
// not memoized.
func (n *Node) windowFor(repliers int) int {
	if repliers > n.params.WindowCap {
		w, _ := optimize.MinWindow(repliers, n.params.CollisionTarget, n.params.WindowCap)
		return w
	}
	if repliers >= len(n.windows) {
		n.windows = append(n.windows, make([]int, repliers+1-len(n.windows))...)
	}
	if n.windows[repliers] == 0 {
		n.windows[repliers], _ = optimize.MinWindow(repliers, n.params.CollisionTarget, n.params.WindowCap)
	}
	return n.windows[repliers]
}

// liveNeighbors drops the entries older than NeighborTTL from the
// neighbour table, in place, and returns the rest.
func (n *Node) liveNeighbors() []neighborInfo {
	now := n.sched.Now()
	kept := n.neighbors[:0]
	for _, nb := range n.neighbors {
		if now-nb.seenAt > n.params.NeighborTTL {
			continue
		}
		kept = append(kept, nb)
	}
	n.neighbors = kept
	return kept
}

// --- mac.Policy implementation (delegating routing to the strategy) ---

// HasData implements mac.Policy.
func (n *Node) HasData() bool { return n.strategy.HasData() }

// SenderParams implements mac.Policy: routing metrics from the strategy,
// contention window from the §4.3 optimizer.
func (n *Node) SenderParams() (float64, float64, int, float64) {
	xi, ftdVal, history := n.strategy.SenderMetrics()
	w := n.currentWindow()
	n.stats.WindowUsed = w
	return xi, ftdVal, w, history
}

// Qualify implements mac.Policy.
func (n *Node) Qualify(rts *packet.RTS) (bool, float64, int, float64) {
	return n.strategy.Qualify(rts)
}

// BuildSchedule implements mac.Policy.
func (n *Node) BuildSchedule(cands []mac.Candidate) ([]packet.ScheduleEntry, *packet.Data) {
	entries, data := n.strategy.BuildSchedule(cands)
	if len(entries) > 0 {
		n.rec.Record(telemetry.Event{
			Time: n.sched.Now(), Node: n.id, Type: telemetry.EvTx,
			Msg: data.ID, Count: int32(len(entries)),
		})
	}
	return entries, data
}

// OnDataReceived implements mac.Policy.
func (n *Node) OnDataReceived(d *packet.Data, entry packet.ScheduleEntry) bool {
	kept := n.strategy.OnDataReceived(d, entry)
	n.rec.Record(telemetry.Event{
		Time: n.sched.Now(), Node: n.id, Type: telemetry.EvRx,
		Msg: d.ID, Peer: d.From, FTD: entry.FTD, Kept: kept,
	})
	return kept
}

// OnTxOutcome implements mac.Policy.
func (n *Node) OnTxOutcome(entries []packet.ScheduleEntry, acked []packet.NodeID) {
	n.rec.Record(telemetry.Event{
		Time: n.sched.Now(), Node: n.id, Type: telemetry.EvTxOutcome,
		Count: int32(len(entries)), Aux: int32(len(acked)),
	})
	n.strategy.OnTxOutcome(entries, acked)
}

// OnNeighborInfo implements mac.Policy: overheard RTS/CTS gossip feeds the
// neighbour table behind the §4 optimizers.
func (n *Node) OnNeighborInfo(id packet.NodeID, xi, history float64) {
	entry := neighborInfo{id: id, xi: xi, history: history, seenAt: n.sched.Now()}
	for i := range n.neighbors {
		if n.neighbors[i].id == id {
			if n.neighbors[i].xi != xi {
				n.nbVersion++
			}
			n.neighbors[i] = entry
			return
		}
	}
	n.neighbors = append(n.neighbors, entry)
	n.nbVersion++
}
