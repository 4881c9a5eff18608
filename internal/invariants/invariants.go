// Package invariants is the runtime protocol-invariant engine: a live
// observer layer attached to a running simulation that re-checks the
// paper's conservation properties after every kernel event, while the
// fault injector (internal/faults) is doing its worst.
//
// The engine complements the offline event-log verifier (telemetry.Verify):
// those rules see only the coarse node lifecycle, whereas the engine reads
// the live protocol state — delivery probabilities, queue contents, MAC
// phases — and recomputes the paper's formulas independently, so a breach
// is caught at the event that introduced it, with virtual-time context.
//
// Checked invariants (the "Invariant catalog" in docs/PROTOCOL.md maps each
// to its paper equation):
//
//   - xi-range:      ξᵢ ∈ [0,1] for every node, always (Eq. 1 closure).
//   - xi-monotone:   between data contacts ξ only decays; an increase is
//     legal only in the event that completed a multicast with ≥ 1 ACK
//     (Eq. 1 has exactly two branches: move toward ξ_k, or decay).
//   - ftd-range:     every queued copy's FTD ∈ [0,1] (Eqs. 2-3 closure).
//   - ftd-split:     each Eq. 2 copy FTD matches an independent
//     recomputation and is never below the pre-split FTD (replication adds
//     coverage, it cannot remove it).
//   - ftd-sender:    the Eq. 3 sender update matches an independent
//     recomputation; a retained copy carries exactly the recomputed value.
//   - sink-custody:  after a sink acknowledged a copy (ξ_k = 1) the sender
//     must not retain custody below FTD 1 — under the default thresholds
//     the copy must leave the queue entirely.
//   - queue-order:   buffer occupancy ≤ capacity, entries ascending by FTD,
//     and nothing above the §3.1.2 drop threshold survives.
//   - mac-liveness:  every started MAC cycle terminates within a generous
//     budget (no engine wedged in a phase; §3.2 cycles are bounded).
//   - copy-conservation: message copies destroyed by crashes equal the
//     queue contents the engine observed immediately before each crash,
//     and match the injector's Resilience digest at the end of the run.
package invariants

import (
	"fmt"

	"dftmsn/internal/buffer"
	"dftmsn/internal/ftd"
	"dftmsn/internal/mac"
	"dftmsn/internal/packet"
	"dftmsn/internal/routing"
)

// Mode selects how the engine reacts to a breach.
type Mode int

const (
	// Off disables checking entirely (the engine still accepts probes).
	Off Mode = iota
	// Report records violations and lets the run continue.
	Report
	// Panic panics at the first breach. Armed under the scheduler's event
	// hook this surfaces as a sim.EventPanic carrying the event context.
	Panic
)

// ParseMode resolves a mode by name: "", "off", "report", "panic".
func ParseMode(name string) (Mode, error) {
	switch name {
	case "", "off":
		return Off, nil
	case "report":
		return Report, nil
	case "panic":
		return Panic, nil
	}
	return Off, fmt.Errorf("invariants: unknown mode %q (want off, report, or panic)", name)
}

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Report:
		return "report"
	case Panic:
		return "panic"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Violation is one observed invariant breach.
type Violation struct {
	// Time is the virtual time of the event that exposed the breach.
	Time float64
	// Node is the node the breached state belongs to.
	Node packet.NodeID
	// Check names the breached invariant (e.g. "xi-range").
	Check string
	// Detail explains the breach with the observed values.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%.6f node=%d %s: %s", v.Time, v.Node, v.Check, v.Detail)
}

// Options configures an engine. The zero value is usable: Report mode,
// default budgets.
type Options struct {
	// Mode selects report-and-continue or panic-at-first-breach.
	Mode Mode
	// MaxViolations caps the recorded violation list (further breaches are
	// only counted). Default 100.
	MaxViolations int
	// CycleBudgetSeconds is the mac-liveness bound: a cycle still running
	// this long after it started is declared stuck. Default 60 s — orders
	// of magnitude above any legitimate §3.2 exchange (a worst-case cycle
	// with a 64-slot window and a 1 s data frame is well under 10 s).
	CycleBudgetSeconds float64
	// OnViolation, when set, receives every breach as it is found (also in
	// Report mode, also past MaxViolations). The scenario runner feeds the
	// metrics collector through it.
	OnViolation func(Violation)
	// Clock, when set, timestamps violations (the scenario runner passes
	// the scheduler's Now). Without it the engine falls back to the time
	// of the last swept event, which lags observer-reported breaches by
	// one event.
	Clock func() float64
}

// Probe is the engine's read-only view of one node. Nil fields skip the
// corresponding checks, so sinks (no sensor queue) and non-FAD schemes
// (no ξ semantics worth checking) register partial probes.
type Probe struct {
	// ID is the node identifier.
	ID packet.NodeID
	// IsSink marks sink nodes (ξ pinned to 1).
	IsSink bool
	// Xi reads the node's current delivery probability.
	Xi func() float64
	// XiEWMA enables the Eq. 1 monotone-decay check; set it only for
	// schemes whose ξ follows Eq. 1 (the FAD family). History-based and
	// basic schemes report ξ with different dynamics.
	XiEWMA bool
	// Queue is the node's FTD-sorted buffer (nil for sinks).
	Queue *buffer.Queue
	// Engine is the node's MAC engine (for the liveness probe).
	Engine *mac.Engine
}

// nodeState is the engine's remembered snapshot of one probed node,
// refreshed every event; deltas against it are what the sweep checks.
type nodeState struct {
	probe        Probe
	lastXi       float64
	lastSuccess  uint64 // mac SendSuccesses at the last sweep
	lastVersion  uint64 // queue version at the last order validation
	lastQueueLen int
	muteLiveness float64 // no mac-liveness report before this time
}

// Engine holds the invariant state for one simulation run. It is driven by
// the scheduler's post-event hook (OnEvent) plus the protocol observers
// (FADObserver, NodeCrashed). Not safe for concurrent use; each run owns
// one engine, like the metrics collector.
type Engine struct {
	opts  Options
	nodes []*nodeState
	index map[packet.NodeID]*nodeState

	now        float64 // virtual time of the event being processed
	checks     uint64
	violations uint64
	recorded   []Violation

	// copy-conservation ledger.
	crashWipedCopies uint64 // per-crash queue contents, observed independently
	crashReports     uint64 // per-crash lost counts, as reported by the hook
}

// New builds an engine.
func New(opts Options) *Engine {
	if opts.MaxViolations <= 0 {
		opts.MaxViolations = 100
	}
	if opts.CycleBudgetSeconds <= 0 {
		opts.CycleBudgetSeconds = 60
	}
	return &Engine{opts: opts, index: make(map[packet.NodeID]*nodeState)}
}

// Register attaches a node probe. Call once per node before the run starts.
func (e *Engine) Register(p Probe) {
	st := &nodeState{probe: p}
	if p.Xi != nil {
		st.lastXi = p.Xi()
	}
	if p.Engine != nil {
		st.lastSuccess = p.Engine.Stats().SendSuccesses
	}
	if p.Queue != nil {
		// Force one full validation on the first sweep.
		st.lastVersion = p.Queue.Version() - 1
		st.lastQueueLen = p.Queue.Len()
	}
	e.nodes = append(e.nodes, st)
	e.index[p.ID] = st
}

// Checks returns the number of individual invariant evaluations so far.
func (e *Engine) Checks() uint64 { return e.checks }

// Violations returns the total breach count (recorded or not).
func (e *Engine) Violations() uint64 { return e.violations }

// Recorded returns the recorded breaches (capped at MaxViolations).
func (e *Engine) Recorded() []Violation { return e.recorded }

// report handles one breach according to the mode.
func (e *Engine) report(node packet.NodeID, check, format string, args ...any) {
	now := e.now
	if e.opts.Clock != nil {
		now = e.opts.Clock()
	}
	v := Violation{Time: now, Node: node, Check: check, Detail: fmt.Sprintf(format, args...)}
	e.violations++
	if e.opts.OnViolation != nil {
		e.opts.OnViolation(v)
	}
	if len(e.recorded) < e.opts.MaxViolations {
		e.recorded = append(e.recorded, v)
	}
	if e.opts.Mode == Panic {
		panic(fmt.Errorf("invariants: %s", v))
	}
}

// OnEvent is the scheduler post-event hook: sweep every probed node's
// cheap state deltas. Heavier checks (queue order) run only when the
// queue's version counter moved.
func (e *Engine) OnEvent(now float64, seq uint64, label string) {
	if e.opts.Mode == Off {
		return
	}
	_ = seq
	_ = label
	e.now = now
	for _, st := range e.nodes {
		e.sweepNode(st)
	}
}

// sweepNode applies the per-event checks to one node.
func (e *Engine) sweepNode(st *nodeState) {
	p := st.probe
	if p.Xi != nil {
		xi := p.Xi()
		e.checks++
		if xi < 0 || xi > 1 || xi != xi {
			e.report(p.ID, "xi-range", "xi=%v out of [0,1]", xi)
		}
		if p.IsSink && xi != 1 {
			e.report(p.ID, "xi-range", "sink xi=%v, must stay pinned at 1", xi)
		}
		if p.XiEWMA && !p.IsSink {
			// Eq. 1: ξ may only move up in the event that completed a
			// multicast with at least one ACK — exactly when the MAC counts
			// a send success. Everything else is decay or reset.
			e.checks++
			if xi > st.lastXi+1e-12 {
				succ := st.lastSuccess
				if p.Engine != nil {
					succ = p.Engine.Stats().SendSuccesses
				}
				if succ == st.lastSuccess {
					e.report(p.ID, "xi-monotone",
						"xi rose %.9f -> %.9f without a completed transmission", st.lastXi, xi)
				}
			}
		}
		st.lastXi = xi
	}
	if p.Engine != nil {
		st.lastSuccess = p.Engine.Stats().SendSuccesses
		e.checks++
		if inCycle, startedAt, phase := p.Engine.CycleInfo(); inCycle &&
			e.now-startedAt > e.opts.CycleBudgetSeconds && e.now >= st.muteLiveness {
			e.report(p.ID, "mac-liveness",
				"cycle started at t=%.3f still in phase %s after %.1f s", startedAt, phase, e.now-startedAt)
			// One report per budget window, not one per event, for a
			// genuinely wedged engine.
			st.muteLiveness = e.now + e.opts.CycleBudgetSeconds
		}
	}
	if p.Queue != nil {
		st.lastQueueLen = p.Queue.Len()
		if v := p.Queue.Version(); v != st.lastVersion {
			st.lastVersion = v
			e.validateQueue(p)
		}
	}
}

// validateQueue re-checks the §3.1.2 structure of one buffer.
func (e *Engine) validateQueue(p Probe) {
	q := p.Queue
	e.checkQueueShape(p.ID, q.Entries(), q.Cap(), q.Threshold())
}

// checkQueueShape is the §3.1.2 structural check over a queue snapshot:
// occupancy within capacity, FTDs in range, nothing above the drop
// threshold, ascending FTD order. Split from validateQueue so tests can
// feed crafted snapshots the queue API itself refuses to build.
func (e *Engine) checkQueueShape(id packet.NodeID, entries []buffer.Entry, capacity int, thr float64) {
	e.checks++
	if len(entries) > capacity {
		e.report(id, "queue-order", "occupancy %d exceeds capacity %d", len(entries), capacity)
		return
	}
	prev := -1.0
	for _, ent := range entries {
		e.checks++
		if ent.FTD < 0 || ent.FTD > 1 || ent.FTD != ent.FTD {
			e.report(id, "ftd-range", "msg=%d ftd=%v out of [0,1]", ent.ID, ent.FTD)
		}
		if ent.FTD > thr {
			e.report(id, "queue-order", "msg=%d ftd=%.6f above drop threshold %.6f", ent.ID, ent.FTD, thr)
		}
		if ent.FTD < prev {
			e.report(id, "queue-order", "msg=%d ftd=%.6f sorts before predecessor %.6f", ent.ID, ent.FTD, prev)
		}
		prev = ent.FTD
	}
}

// FADObserver returns the routing.FADObserver for node id, recomputing
// Eqs. 2-3 independently as the scheme applies them.
func (e *Engine) FADObserver(id packet.NodeID) routing.FADObserver {
	return &fadObserver{eng: e, id: id}
}

type fadObserver struct {
	eng *Engine
	id  packet.NodeID
}

var _ routing.FADObserver = (*fadObserver)(nil)

// ScheduleBuilt re-derives every Eq. 2 copy FTD and checks the split is
// non-decreasing.
func (o *fadObserver) ScheduleBuilt(headID packet.MessageID, headFTD, senderXi float64, entries []packet.ScheduleEntry, selectedXis []float64) {
	e := o.eng
	if e.opts.Mode == Off {
		return
	}
	if len(entries) != len(selectedXis) {
		e.report(o.id, "ftd-split", "msg=%d %d entries but %d receiver xis", headID, len(entries), len(selectedXis))
		return
	}
	for i, ent := range entries {
		e.checks++
		others := make([]float64, 0, len(selectedXis)-1)
		for j, xi := range selectedXis {
			if j != i {
				others = append(others, xi)
			}
		}
		want := ftd.CopyFTD(headFTD, senderXi, others)
		if diff := ent.FTD - want; diff > 1e-9 || diff < -1e-9 {
			e.report(o.id, "ftd-split",
				"msg=%d copy for node %d has ftd %.9f, Eq. 2 gives %.9f", headID, ent.Node, ent.FTD, want)
		}
		e.checks++
		if ent.FTD < headFTD-1e-9 {
			e.report(o.id, "ftd-split",
				"msg=%d copy for node %d has ftd %.9f below pre-split %.9f", headID, ent.Node, ent.FTD, headFTD)
		}
	}
}

// TxOutcome re-derives the Eq. 3 sender update and the sink-custody rule.
func (o *fadObserver) TxOutcome(msgID packet.MessageID, hadCopy bool, before float64, ackedXis []float64, retained bool, after float64) {
	e := o.eng
	if e.opts.Mode == Off || !hadCopy {
		return
	}
	st := e.index[o.id]
	want := ftd.SenderFTD(before, ackedXis)
	e.checks++
	if retained {
		if diff := after - want; diff > 1e-9 || diff < -1e-9 {
			e.report(o.id, "ftd-sender",
				"msg=%d retained with ftd %.9f, Eq. 3 gives %.9f (before %.9f)", msgID, after, want, before)
		}
		if after < before-1e-9 {
			e.report(o.id, "ftd-sender",
				"msg=%d ftd fell %.9f -> %.9f across a multicast", msgID, before, after)
		}
	} else if st != nil && st.probe.Queue != nil {
		// Dropping custody is only legal when Eq. 3 pushed the copy over
		// the §3.1.2 threshold.
		if thr := st.probe.Queue.Threshold(); want <= thr-1e-9 {
			e.report(o.id, "ftd-sender",
				"msg=%d dropped but Eq. 3 ftd %.9f is within threshold %.6f", msgID, want, thr)
		}
	}
	// Sink custody: a sink ACK (ξ_k = 1, only sinks are pinned there) means
	// the message is delivered; retaining a copy below FTD 1 would keep
	// spending transmissions on it.
	sinkAcked := false
	for _, xi := range ackedXis {
		if xi >= 1 {
			sinkAcked = true
			break
		}
	}
	if sinkAcked {
		e.checks++
		if retained && after < 1-1e-9 {
			e.report(o.id, "sink-custody",
				"msg=%d retained at ftd %.9f after a sink acknowledged delivery", msgID, after)
		}
	}
}

// NodeCrashed feeds the copy-conservation ledger: lost is the copy list the
// crash reported destroying. The engine compares it against the queue
// length it observed at the previous event — the crash event itself must
// not have touched the queue before wiping it — and checks the wipe left
// the buffer empty.
func (e *Engine) NodeCrashed(id packet.NodeID, wiped bool, lost []packet.MessageID) {
	if e.opts.Mode == Off {
		return
	}
	st := e.index[id]
	if st == nil {
		return
	}
	e.crashReports += uint64(len(lost))
	if !wiped {
		return
	}
	e.crashWipedCopies += uint64(st.lastQueueLen)
	e.checks++
	if len(lost) != st.lastQueueLen {
		e.report(id, "copy-conservation",
			"crash reported %d copies lost but the queue held %d", len(lost), st.lastQueueLen)
	}
	if st.probe.Queue != nil {
		e.checks++
		if n := st.probe.Queue.Len(); n != 0 {
			e.report(id, "copy-conservation", "queue still holds %d copies after a wiping crash", n)
		}
		st.lastQueueLen = 0
		st.lastVersion = st.probe.Queue.Version()
	}
}

// Finish closes the run: digestCopiesLost is the injector's Resilience
// count of copies destroyed by crashes, which must equal both sides of the
// engine's independent ledger.
func (e *Engine) Finish(digestCopiesLost uint64) {
	if e.opts.Mode == Off {
		return
	}
	e.checks++
	if digestCopiesLost != e.crashReports {
		e.report(0, "copy-conservation",
			"resilience digest counts %d copies lost, crash hooks reported %d", digestCopiesLost, e.crashReports)
	}
	e.checks++
	if e.crashWipedCopies != e.crashReports {
		e.report(0, "copy-conservation",
			"crash hooks reported %d copies lost, pre-crash queues held %d", e.crashReports, e.crashWipedCopies)
	}
}

// NodeCheckState is one probed node's snapshot inside an EngineState,
// ordered by probe registration.
type NodeCheckState struct {
	LastXi       float64
	LastSuccess  uint64
	LastVersion  uint64
	LastQueueLen int
	MuteLiveness float64
}

// EngineState is the engine's snapshot: the per-node sweep memories plus the
// run-wide counters and ledger. Options and probes are rebuilt, not
// serialized.
type EngineState struct {
	Nodes            []NodeCheckState
	Now              float64
	Checks           uint64
	Violations       uint64
	Recorded         []Violation
	CrashWipedCopies uint64
	CrashReports     uint64
}

// ExportState captures the engine for a snapshot.
func (e *Engine) ExportState() EngineState {
	st := EngineState{
		Now:              e.now,
		Checks:           e.checks,
		Violations:       e.violations,
		Recorded:         append([]Violation(nil), e.recorded...),
		CrashWipedCopies: e.crashWipedCopies,
		CrashReports:     e.crashReports,
	}
	for _, n := range e.nodes {
		st.Nodes = append(st.Nodes, NodeCheckState{
			LastXi: n.lastXi, LastSuccess: n.lastSuccess, LastVersion: n.lastVersion,
			LastQueueLen: n.lastQueueLen, MuteLiveness: n.muteLiveness,
		})
	}
	return st
}

// RestoreState overlays a snapshot onto an engine with the same probes
// registered in the same order.
func (e *Engine) RestoreState(st EngineState) error {
	if len(st.Nodes) != len(e.nodes) {
		return fmt.Errorf("invariants: snapshot has %d node states, engine has %d probes", len(st.Nodes), len(e.nodes))
	}
	for i, n := range st.Nodes {
		e.nodes[i].lastXi = n.LastXi
		e.nodes[i].lastSuccess = n.LastSuccess
		e.nodes[i].lastVersion = n.LastVersion
		e.nodes[i].lastQueueLen = n.LastQueueLen
		e.nodes[i].muteLiveness = n.MuteLiveness
	}
	e.now = st.Now
	e.checks = st.Checks
	e.violations = st.Violations
	e.recorded = append(e.recorded[:0], st.Recorded...)
	e.crashWipedCopies = st.CrashWipedCopies
	e.crashReports = st.CrashReports
	return nil
}

// Digest summarises the engine state for a run result.
type Digest struct {
	// Armed reports whether checking was enabled.
	Armed bool
	// Checks is the number of individual invariant evaluations.
	Checks uint64
	// Violations is the total breach count.
	Violations uint64
	// Recorded holds the first breaches, capped by Options.MaxViolations.
	Recorded []Violation
}

// Digest snapshots the engine.
func (e *Engine) Digest() Digest {
	return Digest{
		Armed:      e.opts.Mode != Off,
		Checks:     e.checks,
		Violations: e.violations,
		Recorded:   append([]Violation(nil), e.recorded...),
	}
}
