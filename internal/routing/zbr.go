package routing

import (
	"fmt"

	"dftmsn/internal/buffer"
	"dftmsn/internal/mac"
	"dftmsn/internal/packet"
)

// ZBRConfig parameterises the ZebraNet history-based baseline.
type ZBRConfig struct {
	// Beta is the history EWMA weight: each history epoch,
	// h ← (1-Beta)·h + Beta·I(direct sink contact during the epoch).
	Beta float64
	// QueueCapacity is the FIFO buffer size in messages.
	QueueCapacity int
	// NoInfoFloor is the history level below which two nodes are treated
	// as equally uninformed: between such nodes the hand-off happens
	// anyway, so the message performs a random walk — the paper's "for the
	// nodes that never directly meet the sink nodes, the transmission
	// becomes random, and thus less efficient".
	NoInfoFloor float64
}

// DefaultZBRConfig returns the baseline defaults.
func DefaultZBRConfig() ZBRConfig {
	return ZBRConfig{Beta: 0.1, QueueCapacity: 200, NoInfoFloor: 0.02}
}

// Validate reports configuration errors.
func (c ZBRConfig) Validate() error {
	if c.Beta <= 0 || c.Beta >= 1 {
		return fmt.Errorf("routing: ZBR beta %v out of (0,1)", c.Beta)
	}
	if c.QueueCapacity <= 0 {
		return fmt.Errorf("routing: queue capacity %d must be positive", c.QueueCapacity)
	}
	if c.NoInfoFloor < 0 || c.NoInfoFloor >= 1 {
		return fmt.Errorf("routing: NoInfoFloor %v out of [0,1)", c.NoInfoFloor)
	}
	return nil
}

// ZBR is the ZebraNet history-based scheme of the paper's §2/§5: each node
// tracks its past success rate of transmitting data directly to a sink;
// on contact, a node hands a single message copy to a neighbour with a
// strictly higher success history. It runs on the same MAC engine as the
// paper's scheme ("ZBR differs from OPT only in the message transmission
// scheme").
type ZBR struct {
	id     packet.NodeID
	cfg    ZBRConfig
	fifo   *buffer.FIFO
	isSink func(packet.NodeID) bool

	history     float64
	sinkContact bool

	// Lazy closed-form history decay (see routing.LazyDecayer): epochs
	// pending at nextTick, nextTick+lazyInterval, … settle on read. The
	// first pending epoch absorbs the current sink-contact flag, later
	// ones see it cleared — identical to firing OnDecayTick per epoch.
	lazyClock    func() float64
	lazyInterval float64
	lazyRunning  bool
	nextTick     float64
	lazyTicks    uint64

	pendingID packet.MessageID
}

var (
	_ Strategy    = (*ZBR)(nil)
	_ DecayTicker = (*ZBR)(nil)
	_ LazyDecayer = (*ZBR)(nil)
)

// NewZBR builds the baseline for node id. isSink identifies sink node IDs
// (ZebraNet nodes know their base station).
func NewZBR(id packet.NodeID, cfg ZBRConfig, isSink func(packet.NodeID) bool) (*ZBR, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if isSink == nil {
		return nil, fmt.Errorf("routing: ZBR needs an isSink classifier")
	}
	fifo, err := buffer.NewFIFO(cfg.QueueCapacity)
	if err != nil {
		return nil, err
	}
	return &ZBR{id: id, cfg: cfg, fifo: fifo, isSink: isSink}, nil
}

// Name implements Strategy.
func (z *ZBR) Name() string { return "ZBR" }

// Xi implements Strategy: ZBR's channel-access metric is its history, so
// the Eq. 9 adaptive listening keeps favouring nodes with little to offer
// as receivers, mirroring OPT's MAC behaviour.
func (z *ZBR) Xi() float64 {
	z.settleDecay()
	return z.history
}

// History returns the node's direct-to-sink success history.
func (z *ZBR) History() float64 {
	z.settleDecay()
	return z.history
}

// EnableLazyDecay implements LazyDecayer.
func (z *ZBR) EnableLazyDecay(clock func() float64, interval float64) {
	z.lazyClock = clock
	z.lazyInterval = interval
}

// StartLazyDecay implements LazyDecayer.
func (z *ZBR) StartLazyDecay(now float64) {
	if z.lazyRunning {
		return
	}
	z.lazyRunning = true
	z.nextTick = now + z.lazyInterval
}

// StopLazyDecay implements LazyDecayer.
func (z *ZBR) StopLazyDecay(now float64) {
	z.settleTo(now)
	z.lazyRunning = false
}

// ElidedDecayTicks implements LazyDecayer.
func (z *ZBR) ElidedDecayTicks() uint64 { return z.lazyTicks }

// settleDecay applies every epoch pending at the current clock.
func (z *ZBR) settleDecay() {
	if z.lazyClock == nil || !z.lazyRunning {
		return
	}
	z.settleTo(z.lazyClock())
}

// settleTo replays pending epochs with end times <= now. Each replay is
// the exact OnDecayTick body, so the first pending epoch consumes the
// live sink-contact flag and clears it for the rest.
func (z *ZBR) settleTo(now float64) {
	if z.lazyClock == nil || !z.lazyRunning {
		return
	}
	for z.nextTick <= now {
		z.applyEpoch()
		z.lazyTicks++
		z.nextTick += z.lazyInterval
	}
}

// XiAt implements LazyDecayer: the history a read at time t will see,
// assuming no sink contact or reset in between.
func (z *ZBR) XiAt(t float64) float64 {
	z.settleDecay()
	h := z.history
	if z.lazyClock == nil || !z.lazyRunning {
		return h
	}
	contact := 0.0
	if z.sinkContact {
		contact = 1
	}
	for tick := z.nextTick; tick <= t; tick += z.lazyInterval {
		h = (1-z.cfg.Beta)*h + z.cfg.Beta*contact
		contact = 0
	}
	return h
}

// HasData implements Strategy.
func (z *ZBR) HasData() bool { return z.fifo.Len() > 0 }

// SenderMetrics implements Strategy.
func (z *ZBR) SenderMetrics() (float64, float64, float64) {
	z.settleDecay()
	return z.history, 0, z.history
}

// Qualify implements Strategy: a receiver qualifies when its history
// strictly exceeds the sender's, or when both are below the no-information
// floor (the random-walk regime), and it has buffer space.
func (z *ZBR) Qualify(rts *packet.RTS) (bool, float64, int, float64) {
	z.settleDecay()
	avail := z.fifo.Available()
	better := z.history > rts.History
	uninformed := z.history <= z.cfg.NoInfoFloor && rts.History <= z.cfg.NoInfoFloor
	if (better || uninformed) && avail > 0 {
		return true, z.history, avail, z.history
	}
	return false, z.history, avail, z.history
}

// BuildSchedule implements Strategy: hand the head message to the single
// candidate with the highest history.
func (z *ZBR) BuildSchedule(cands []mac.Candidate) ([]packet.ScheduleEntry, *packet.Data) {
	head, ok := z.fifo.Head()
	if !ok || len(cands) == 0 {
		return nil, nil
	}
	best := sortCandidatesByHistory(cands)[0]
	z.pendingID = head.ID
	return []packet.ScheduleEntry{{Node: best.Node, FTD: 0}}, entryToData(z.id, head)
}

// OnDataReceived implements Strategy.
func (z *ZBR) OnDataReceived(d *packet.Data, _ packet.ScheduleEntry) bool {
	return z.fifo.Insert(buffer.Entry{
		ID:          d.ID,
		Origin:      d.Origin,
		CreatedAt:   d.CreatedAt,
		PayloadBits: d.PayloadBits,
		Hops:        d.Hops + 1,
	})
}

// OnTxOutcome implements Strategy: an acknowledged hand-off removes the
// local copy (single-copy forwarding); a direct sink contact feeds the
// history update at cycle end.
func (z *ZBR) OnTxOutcome(_ []packet.ScheduleEntry, acked []packet.NodeID) {
	if len(acked) == 0 {
		return
	}
	z.fifo.Remove(z.pendingID)
	for _, a := range acked {
		if z.isSink(a) {
			// Epochs that ended before this contact must absorb the old
			// flag state before the new contact is visible.
			z.settleDecay()
			z.sinkContact = true
		}
	}
}

// OnCycleEnd implements Strategy: ZBR's per-cycle state (the sink-contact
// flag) is folded into the history on a time basis in OnDecayTick, because
// ZebraNet's metric is a success *rate* over scan periods, not per-contact.
func (z *ZBR) OnCycleEnd(mac.Outcome, float64) {}

// OnDecayTick implements DecayTicker: one history epoch ends — the EWMA
// absorbs whether any direct sink contact happened during it. Only the
// eager control arm drives it; under lazy decay applyEpoch runs in
// settleTo instead.
func (z *ZBR) OnDecayTick(float64) { z.applyEpoch() }

// applyEpoch folds the sink-contact flag into the history EWMA.
func (z *ZBR) applyEpoch() {
	contact := 0.0
	if z.sinkContact {
		contact = 1
	}
	z.history = (1-z.cfg.Beta)*z.history + z.cfg.Beta*contact
	z.sinkContact = false
}

// Generate implements Strategy.
func (z *ZBR) Generate(id packet.MessageID, now float64, payloadBits int) bool {
	return z.fifo.Insert(buffer.Entry{
		ID:          id,
		Origin:      z.id,
		CreatedAt:   now,
		PayloadBits: payloadBits,
	})
}

// ImportantCount implements Strategy: without FTDs, every queued message
// counts as important, so the sleep α reduces to buffer occupancy.
func (z *ZBR) ImportantCount() int { return z.fifo.Len() }

// QueueLen implements Strategy.
func (z *ZBR) QueueLen() int { return z.fifo.Len() }

// QueueCap implements Strategy.
func (z *ZBR) QueueCap() int { return z.fifo.Cap() }

// Drops implements Strategy.
func (z *ZBR) Drops() buffer.DropCounts { return z.fifo.Drops() }

// WipeQueue implements Strategy.
func (z *ZBR) WipeQueue() []packet.MessageID { return z.fifo.Wipe() }

// ResetRouting implements Strategy: the direct-to-sink history EWMA starts
// over from zero. Pending epochs settle against the old state first so the
// elided-tick ledger matches the eager arm's fired ticks.
func (z *ZBR) ResetRouting() {
	z.settleDecay()
	z.history = 0
	z.sinkContact = false
}
