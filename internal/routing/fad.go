package routing

import (
	"fmt"

	"dftmsn/internal/buffer"
	"dftmsn/internal/ftd"
	"dftmsn/internal/mac"
	"dftmsn/internal/packet"
)

// FADConfig parameterises the paper's fault-tolerance-based scheme.
type FADConfig struct {
	// Alpha is the Eq. 1 memory constant for ξ updates, in [0,1].
	Alpha float64
	// DecayInterval is the Eq. 1 timeout Δ: an interval without any data
	// transmission decays ξ by (1-Alpha).
	DecayInterval float64
	// DeliveryThreshold is R of §3.2.2: receivers are added until the
	// message's aggregate delivery probability exceeds R.
	DeliveryThreshold float64
	// DropThreshold is the §3.1.2 FTD bound above which a queued copy is
	// discarded.
	DropThreshold float64
	// QueueCapacity is the buffer size K in messages.
	QueueCapacity int
	// FImportant is the Eq. 5 importance bound for the sleep optimizer.
	FImportant float64
	// SkipSenderFTDUpdate deliberately mis-implements the protocol by
	// skipping the Eq. 3 sender-FTD update after a multicast. It exists
	// only to validate the runtime invariant engine and the chaos harness
	// against a known-bad build (mutation testing); never enable it in a
	// real experiment.
	SkipSenderFTDUpdate bool
}

// DefaultFADConfig returns the defaults used by the reproduction (the paper
// leaves these constants unspecified; see EXPERIMENTS.md for calibration).
func DefaultFADConfig() FADConfig {
	return FADConfig{
		Alpha:             0.1,
		DecayInterval:     30,
		DeliveryThreshold: 0.9,
		DropThreshold:     0.95,
		QueueCapacity:     200,
		FImportant:        0.5,
	}
}

// Validate reports configuration errors.
func (c FADConfig) Validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("routing: alpha %v out of [0,1]", c.Alpha)
	}
	if c.DecayInterval <= 0 {
		return fmt.Errorf("routing: decay interval %v must be positive", c.DecayInterval)
	}
	if c.DeliveryThreshold <= 0 || c.DeliveryThreshold >= 1 {
		return fmt.Errorf("routing: delivery threshold %v out of (0,1)", c.DeliveryThreshold)
	}
	if c.DropThreshold <= 0 || c.DropThreshold > 1 {
		return fmt.Errorf("routing: drop threshold %v out of (0,1]", c.DropThreshold)
	}
	if c.QueueCapacity <= 0 {
		return fmt.Errorf("routing: queue capacity %d must be positive", c.QueueCapacity)
	}
	if c.FImportant < 0 || c.FImportant > 1 {
		return fmt.Errorf("routing: FImportant %v out of [0,1]", c.FImportant)
	}
	return nil
}

// FADObserver receives the FAD scheme's protocol-update events as they
// happen, carrying enough context to independently recompute the Eq. 2 and
// Eq. 3 formulas. The runtime invariant engine (internal/invariants) is the
// intended implementation; a nil observer costs nothing.
type FADObserver interface {
	// ScheduleBuilt fires after BuildSchedule selected a receiver set:
	// headID/headFTD describe the multicast message before the split,
	// senderXi is the node's ξ, entries carry the Eq. 2 per-copy FTDs, and
	// selectedXis are the chosen receivers' ξ values in entry order.
	ScheduleBuilt(headID packet.MessageID, headFTD, senderXi float64, entries []packet.ScheduleEntry, selectedXis []float64)
	// TxOutcome fires after the ACK window closed with at least one
	// acknowledged receiver: before is the retained copy's FTD before the
	// Eq. 3 update (valid only when hadCopy), ackedXis are the acknowledged
	// receivers' ξ values, and retained/after describe the queue state
	// after the update (after equals before when the copy was dropped).
	TxOutcome(msgID packet.MessageID, hadCopy bool, before float64, ackedXis []float64, retained bool, after float64)
}

// FADObservers tees protocol-update events to several observers in order.
type FADObservers []FADObserver

var _ FADObserver = FADObservers(nil)

// ScheduleBuilt implements FADObserver.
func (m FADObservers) ScheduleBuilt(headID packet.MessageID, headFTD, senderXi float64, entries []packet.ScheduleEntry, selectedXis []float64) {
	for _, o := range m {
		o.ScheduleBuilt(headID, headFTD, senderXi, entries, selectedXis)
	}
}

// TxOutcome implements FADObserver.
func (m FADObservers) TxOutcome(msgID packet.MessageID, hadCopy bool, before float64, ackedXis []float64, retained bool, after float64) {
	for _, o := range m {
		o.TxOutcome(msgID, hadCopy, before, ackedXis, retained, after)
	}
}

// CombineFADObservers composes observers, skipping nils: none yields nil
// (which SetObserver treats as detached), one is returned unwrapped.
func CombineFADObservers(obs ...FADObserver) FADObserver {
	out := make(FADObservers, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}

// FAD is the paper's §3 data-delivery scheme: FTD-managed queue plus
// delivery-probability-guided multicast.
type FAD struct {
	id    packet.NodeID
	cfg   FADConfig
	queue *buffer.Queue
	prob  *ftd.DeliveryProb
	obs   FADObserver

	// lastTx is the virtual time of the last successful data transmission,
	// driving the Eq. 1 timeout decay.
	lastTx float64
	txEver bool

	// Lazy closed-form decay (see routing.LazyDecayer): when lazyClock is
	// set the node schedules no decay ticker; instead epochs pending at
	// nextTick, nextTick+lazyInterval, … are settled on read. lazyInterval
	// is the node ticker's period; the Eq. 1 gate still uses
	// cfg.DecayInterval, exactly as the eager OnDecayTick does.
	lazyClock    func() float64
	lazyInterval float64
	lazyRunning  bool
	nextTick     float64
	lazyTicks    uint64

	// pending caches the context of the in-flight multicast between
	// BuildSchedule and OnTxOutcome.
	pendingID  packet.MessageID
	pendingXis map[packet.NodeID]float64
}

var (
	_ Strategy    = (*FAD)(nil)
	_ DecayTicker = (*FAD)(nil)
	_ LazyDecayer = (*FAD)(nil)
)

// NewFAD builds the scheme for node id.
func NewFAD(id packet.NodeID, cfg FADConfig) (*FAD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := validateCommon(id, cfg.QueueCapacity); err != nil {
		return nil, err
	}
	q, err := buffer.NewQueue(cfg.QueueCapacity, cfg.DropThreshold)
	if err != nil {
		return nil, err
	}
	prob, err := ftd.NewDeliveryProb(cfg.Alpha)
	if err != nil {
		return nil, err
	}
	return &FAD{id: id, cfg: cfg, queue: q, prob: prob, pendingXis: make(map[packet.NodeID]float64)}, nil
}

// Name implements Strategy.
func (f *FAD) Name() string { return "FAD" }

// SetObserver attaches a protocol-update observer (nil detaches).
func (f *FAD) SetObserver(o FADObserver) { f.obs = o }

// Xi implements Strategy.
func (f *FAD) Xi() float64 {
	f.settleDecay()
	return f.prob.Value()
}

// HasData implements Strategy.
func (f *FAD) HasData() bool { return f.queue.Len() > 0 }

// SenderMetrics implements Strategy.
func (f *FAD) SenderMetrics() (float64, float64, float64) {
	f.settleDecay()
	head, ok := f.queue.Head()
	if !ok {
		return f.prob.Value(), 0, 0
	}
	return f.prob.Value(), head.FTD, 0
}

// EnableLazyDecay implements LazyDecayer.
func (f *FAD) EnableLazyDecay(clock func() float64, interval float64) {
	f.lazyClock = clock
	f.lazyInterval = interval
}

// StartLazyDecay implements LazyDecayer: the first epoch ends one interval
// from now, mirroring sim.Ticker.Start. Starting a running sequence is a
// no-op, like Ticker.Start.
func (f *FAD) StartLazyDecay(now float64) {
	if f.lazyRunning {
		return
	}
	f.lazyRunning = true
	f.nextTick = now + f.lazyInterval
}

// StopLazyDecay implements LazyDecayer: epochs through now settle, then
// the value freezes until the next StartLazyDecay.
func (f *FAD) StopLazyDecay(now float64) {
	f.settleTo(now)
	f.lazyRunning = false
}

// ElidedDecayTicks implements LazyDecayer.
func (f *FAD) ElidedDecayTicks() uint64 { return f.lazyTicks }

// settleDecay applies every epoch pending at the current clock.
func (f *FAD) settleDecay() {
	if f.lazyClock == nil || !f.lazyRunning {
		return
	}
	f.settleTo(f.lazyClock())
}

// settleTo replays pending epochs with end times <= now, applying at each
// exactly what the eager OnDecayTick would have: the Eq. 1 timeout gated
// on the last transmission. lastTx and txEver only mutate in methods that
// settle first, so every replayed epoch sees the values it would have
// seen live.
func (f *FAD) settleTo(now float64) {
	if f.lazyClock == nil || !f.lazyRunning {
		return
	}
	for f.nextTick <= now {
		if !f.txEver || f.nextTick-f.lastTx >= f.cfg.DecayInterval {
			f.prob.OnTimeout()
		}
		f.lazyTicks++
		f.nextTick += f.lazyInterval
	}
}

// XiAt implements LazyDecayer: the ξ a read at time t will see, given no
// intervening transmission or reset. In eager mode (no lazy clock) ξ only
// changes through events, so the current value is the answer.
func (f *FAD) XiAt(t float64) float64 {
	f.settleDecay()
	xi := f.prob.Value()
	if f.lazyClock == nil || !f.lazyRunning {
		return xi
	}
	for tick := f.nextTick; tick <= t; tick += f.lazyInterval {
		if !f.txEver || tick-f.lastTx >= f.cfg.DecayInterval {
			xi = f.prob.PeekTimeout(xi)
		}
	}
	return xi
}

// Qualify implements Strategy: a qualified receiver has a strictly higher
// delivery probability than the sender and buffer space for the message's
// FTD (§3.2.1).
func (f *FAD) Qualify(rts *packet.RTS) (bool, float64, int, float64) {
	f.settleDecay()
	xi := f.prob.Value()
	avail := f.queue.AvailableFor(rts.FTD)
	if xi > rts.Xi && avail > 0 {
		return true, xi, avail, 0
	}
	return false, xi, avail, 0
}

// BuildSchedule implements Strategy with the §3.2.2 procedure: sort by
// decreasing ξ, take qualified candidates until the aggregate delivery
// probability of the head message exceeds R, then assign each selected
// receiver its Eq. 2 copy FTD.
func (f *FAD) BuildSchedule(cands []mac.Candidate) ([]packet.ScheduleEntry, *packet.Data) {
	head, ok := f.queue.Head()
	if !ok || len(cands) == 0 {
		return nil, nil
	}
	f.settleDecay()
	xi := f.prob.Value()
	sorted := sortCandidates(cands)
	fc := make([]ftd.Candidate, len(sorted))
	for i, c := range sorted {
		fc[i] = ftd.Candidate{Node: int(c.Node), Xi: c.Xi, BufferAvail: c.BufferAvail}
	}
	selected := ftd.SelectReceivers(xi, head.FTD, f.cfg.DeliveryThreshold, fc)
	// Prune receivers whose Eq. 2 copy FTD would exceed the drop threshold:
	// their queues would reject the copy anyway, so transmitting to them is
	// pure overhead. Sinks (ξ = 1) always accept and are never pruned.
	// Removal shrinks the remaining copies' coverage, so iterate to a fixed
	// point.
	for {
		removed := false
		for i := 0; i < len(selected); i++ {
			if selected[i].Xi >= 1 {
				continue
			}
			others := otherXis(selected, i)
			if ftd.CopyFTD(head.FTD, xi, others) > f.cfg.DropThreshold {
				selected = append(selected[:i], selected[i+1:]...)
				removed = true
				i--
			}
		}
		if !removed {
			break
		}
	}
	if len(selected) == 0 {
		return nil, nil
	}
	entries := make([]packet.ScheduleEntry, len(selected))
	clear(f.pendingXis)
	for i, s := range selected {
		entries[i] = packet.ScheduleEntry{
			Node: packet.NodeID(s.Node),
			FTD:  ftd.CopyFTD(head.FTD, xi, otherXis(selected, i)),
		}
		f.pendingXis[packet.NodeID(s.Node)] = s.Xi
	}
	f.pendingID = head.ID
	if f.obs != nil {
		selectedXis := make([]float64, len(selected))
		for i, s := range selected {
			selectedXis[i] = s.Xi
		}
		f.obs.ScheduleBuilt(head.ID, head.FTD, xi, entries, selectedXis)
	}
	return entries, entryToData(f.id, head)
}

// otherXis returns the ξ values of every selected candidate except index i
// (the Π_{m∈Φ, m≠j} term of Eq. 2).
func otherXis(selected []ftd.Candidate, i int) []float64 {
	others := make([]float64, 0, len(selected)-1)
	for j, o := range selected {
		if j != i {
			others = append(others, o.Xi)
		}
	}
	return others
}

// OnDataReceived implements Strategy: the copy is queued with the FTD the
// sender assigned in the SCHEDULE (Eq. 2). A copy the queue rejects
// (threshold or overflow) is reported as not kept and goes unacknowledged.
func (f *FAD) OnDataReceived(d *packet.Data, entry packet.ScheduleEntry) bool {
	return f.queue.Insert(buffer.Entry{
		ID:          d.ID,
		Origin:      d.Origin,
		CreatedAt:   d.CreatedAt,
		PayloadBits: d.PayloadBits,
		FTD:         entry.FTD,
		Hops:        d.Hops + 1,
	})
}

// OnTxOutcome implements Strategy: per Eq. 1 the sender's ξ moves toward
// the receiver's ξ. Eq. 1 is written for a single receiver k; for a
// multicast we apply one update toward the best (highest-ξ) ACKed receiver
// — the copy most likely to complete delivery — rather than once per
// receiver, which would make ξ sensitive to exchange *rate* rather than
// delivery prospects. Per Eq. 3 the local copy's FTD absorbs the ACKed
// receivers' coverage and is re-queued or dropped by the §3.1.2 rules.
func (f *FAD) OnTxOutcome(entries []packet.ScheduleEntry, acked []packet.NodeID) {
	if len(acked) == 0 {
		return
	}
	// Epochs pending before this outcome decay the pre-transmission ξ and
	// see the pre-transmission lastTx/txEver, exactly as live ticks did.
	f.settleDecay()
	ackSet := make(map[packet.NodeID]bool, len(acked))
	for _, a := range acked {
		ackSet[a] = true
	}
	before, ok := f.queue.FTDOf(f.pendingID)
	if !ok {
		before = 0
	}
	ackedXis := make([]float64, 0, len(acked))
	best := -1.0
	for _, e := range entries {
		if !ackSet[e.Node] {
			continue
		}
		xiK, known := f.pendingXis[e.Node]
		if !known {
			continue
		}
		ackedXis = append(ackedXis, xiK)
		if xiK > best {
			best = xiK
		}
	}
	if len(ackedXis) == 0 {
		return
	}
	f.prob.OnTransmission(best)
	retained := ok
	if ok && !f.cfg.SkipSenderFTDUpdate {
		retained = f.queue.UpdateFTD(f.pendingID, ftd.SenderFTD(before, ackedXis))
	}
	after := before
	if retained {
		after, _ = f.queue.FTDOf(f.pendingID)
	}
	if f.obs != nil {
		f.obs.TxOutcome(f.pendingID, ok, before, ackedXis, retained, after)
	}
	f.txEver = true
}

// OnCycleEnd implements Strategy: the FAD scheme's per-cycle state is
// handled in OnTxOutcome; nothing to do here.
func (f *FAD) OnCycleEnd(out mac.Outcome, now float64) {
	if out.Sent {
		f.settleDecay()
		f.lastTx = now
	}
}

// OnDecayTick implements DecayTicker: Eq. 1's timeout branch. Only the
// eager control arm drives it; under lazy decay the same update runs in
// settleTo.
func (f *FAD) OnDecayTick(now float64) {
	if !f.txEver || now-f.lastTx >= f.cfg.DecayInterval {
		f.prob.OnTimeout()
	}
}

// Generate implements Strategy: a freshly sensed message enters the queue
// with FTD 0 — highest importance (§3.1.2).
func (f *FAD) Generate(id packet.MessageID, now float64, payloadBits int) bool {
	return f.queue.Insert(buffer.Entry{
		ID:          id,
		Origin:      f.id,
		CreatedAt:   now,
		PayloadBits: payloadBits,
		FTD:         0,
	})
}

// ImportantCount implements Strategy: K_F of Eq. 5.
func (f *FAD) ImportantCount() int { return f.queue.CountBelow(f.cfg.FImportant) }

// QueueLen implements Strategy.
func (f *FAD) QueueLen() int { return f.queue.Len() }

// QueueCap implements Strategy.
func (f *FAD) QueueCap() int { return f.queue.Cap() }

// Drops implements Strategy.
func (f *FAD) Drops() buffer.DropCounts { return f.queue.Drops() }

// WipeQueue implements Strategy.
func (f *FAD) WipeQueue() []packet.MessageID { return f.queue.Wipe() }

// ResetRouting implements Strategy: ξ returns to its initial value and the
// Eq. 1 timeout clock restarts as if the node had never transmitted.
// Epochs pending at reset time settle against the old state first, keeping
// the elided-tick ledger aligned with the eager arm's fired ticks.
func (f *FAD) ResetRouting() {
	f.settleDecay()
	f.prob.Reset()
	f.lastTx = 0
	f.txEver = false
}

// Queue exposes the underlying queue for inspection in tests and tools.
func (f *FAD) Queue() *buffer.Queue { return f.queue }
