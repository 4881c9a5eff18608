package routing

import (
	"fmt"

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
	fifoScheme
	cfg    ZBRConfig
	isSink func(packet.NodeID) bool

	history     float64
	sinkContact bool

	// decaySeq runs the history epochs. The first pending epoch absorbs
	// the current sink-contact flag, later ones see it cleared.
	decaySeq
}

var (
	_ Strategy = (*ZBR)(nil)
	_ Decayer  = (*ZBR)(nil)
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
	base, err := newFIFOScheme("ZBR", id, cfg.QueueCapacity)
	if err != nil {
		return nil, err
	}
	z := &ZBR{fifoScheme: base, cfg: cfg, isSink: isSink}
	z.apply = func(float64) {
		z.history = z.epoch(z.history, z.sinkContact)
		z.sinkContact = false
	}
	return z, nil
}

// epoch is ZBR's history rule: when an epoch ends, the EWMA absorbs
// whether any direct sink contact happened during it. It runs on a time
// basis rather than per cycle because ZebraNet's metric is a success
// *rate* over scan periods, not per contact.
func (z *ZBR) epoch(h float64, contact bool) float64 {
	c := 0.0
	if contact {
		c = 1
	}
	return (1-z.cfg.Beta)*h + z.cfg.Beta*c
}

// Xi implements Strategy: ZBR's channel-access metric is its history, so
// the Eq. 9 adaptive listening keeps favouring nodes with little to offer
// as receivers, mirroring OPT's MAC behaviour.
func (z *ZBR) Xi() float64 {
	z.settle()
	return z.history
}

// History returns the node's direct-to-sink success history.
func (z *ZBR) History() float64 {
	z.settle()
	return z.history
}

// XiAt implements Decayer: the history a read at time t will see,
// assuming no sink contact or reset in between.
func (z *ZBR) XiAt(t float64) float64 {
	z.settle()
	h, contact := z.history, z.sinkContact
	z.peek(t, func(float64) {
		h = z.epoch(h, contact)
		contact = false
	})
	return h
}

// SenderMetrics implements Strategy.
func (z *ZBR) SenderMetrics() (float64, float64, float64) {
	z.settle()
	return z.history, 0, z.history
}

// Qualify implements Strategy: a receiver qualifies when its history
// strictly exceeds the sender's, or when both are below the no-information
// floor (the random-walk regime), and it has buffer space.
func (z *ZBR) Qualify(rts *packet.RTS) (bool, float64, int, float64) {
	z.settle()
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
	best := sortCandidates(cands, byHistory)[0]
	z.pendingID = head.ID
	return []packet.ScheduleEntry{{Node: best.Node, FTD: 0}}, entryToData(z.id, head)
}

// OnTxOutcome implements Strategy: an acknowledged hand-off removes the
// local copy (single-copy forwarding); a direct sink contact feeds the
// history update at the end of the current epoch.
func (z *ZBR) OnTxOutcome(_ []packet.ScheduleEntry, acked []packet.NodeID) {
	if len(acked) == 0 {
		return
	}
	z.fifo.Remove(z.pendingID)
	for _, a := range acked {
		if z.isSink(a) {
			// Epochs that ended before this contact must absorb the old
			// flag state before the new contact is visible.
			z.settle()
			z.sinkContact = true
		}
	}
}

// ResetRouting implements Strategy: the direct-to-sink history EWMA starts
// over from zero. Pending epochs settle against the old state first so the
// elided-tick ledger matches the eager arm's fired ticks.
func (z *ZBR) ResetRouting() {
	z.settle()
	z.history = 0
	z.sinkContact = false
}
