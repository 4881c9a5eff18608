package routing

import (
	"fmt"

	"dftmsn/internal/buffer"
	"dftmsn/internal/mac"
	"dftmsn/internal/packet"
)

// fifoScheme is the substrate Direct, Epidemic and ZBR share: a FIFO queue
// with duplicate suppression and the ID of the message in flight between
// BuildSchedule and OnTxOutcome. It implements every Strategy method that
// does not depend on the forwarding rule; the embedding scheme supplies
// the rest.
type fifoScheme struct {
	name      string
	id        packet.NodeID
	fifo      *buffer.FIFO
	pendingID packet.MessageID
}

func newFIFOScheme(name string, id packet.NodeID, queueCap int) (fifoScheme, error) {
	fifo, err := buffer.NewFIFO(queueCap)
	if err != nil {
		return fifoScheme{}, err
	}
	return fifoScheme{name: name, id: id, fifo: fifo}, nil
}

// Name implements Strategy.
func (b *fifoScheme) Name() string { return b.name }

// HasData implements Strategy.
func (b *fifoScheme) HasData() bool { return b.fifo.Len() > 0 }

// Generate implements Strategy.
func (b *fifoScheme) Generate(id packet.MessageID, now float64, payloadBits int) bool {
	return b.fifo.Insert(buffer.Entry{ID: id, Origin: b.id, CreatedAt: now, PayloadBits: payloadBits})
}

// OnDataReceived implements Strategy (FIFO.Insert deduplicates copies).
func (b *fifoScheme) OnDataReceived(d *packet.Data, _ packet.ScheduleEntry) bool {
	return b.fifo.Insert(buffer.Entry{
		ID:          d.ID,
		Origin:      d.Origin,
		CreatedAt:   d.CreatedAt,
		PayloadBits: d.PayloadBits,
		Hops:        d.Hops + 1,
	})
}

// OnCycleEnd implements Strategy: the FIFO schemes keep no per-cycle
// state.
func (b *fifoScheme) OnCycleEnd(mac.Outcome, float64) {}

// ImportantCount implements Strategy: without FTDs, every queued message
// counts as important, so the sleep α reduces to buffer occupancy.
func (b *fifoScheme) ImportantCount() int { return b.fifo.Len() }

// QueueLen implements Strategy.
func (b *fifoScheme) QueueLen() int { return b.fifo.Len() }

// QueueCap implements Strategy.
func (b *fifoScheme) QueueCap() int { return b.fifo.Cap() }

// Drops implements Strategy.
func (b *fifoScheme) Drops() buffer.DropCounts { return b.fifo.Drops() }

// WipeQueue implements Strategy.
func (b *fifoScheme) WipeQueue() []packet.MessageID { return b.fifo.Wipe() }

// ResetRouting implements Strategy: Direct and Epidemic learn nothing.
func (b *fifoScheme) ResetRouting() {}

// Direct is the §2 "direct transmission" basic scheme: a sensor keeps its
// messages until it meets a sink and transmits only then. No sensor ever
// relays for another, so delivery depends entirely on the origin's own
// mobility. Provided as an extension baseline (analysed in the authors'
// earlier DFT-MSN paper). It has no periodic decay, so it implements no
// Decayer and schedules no decay events in any mode.
type Direct struct {
	fifoScheme
	isSink func(packet.NodeID) bool
}

var _ Strategy = (*Direct)(nil)

// NewDirect builds the scheme for node id with the given buffer capacity.
func NewDirect(id packet.NodeID, queueCap int, isSink func(packet.NodeID) bool) (*Direct, error) {
	base, err := newFIFOScheme("DIRECT", id, queueCap)
	if err != nil {
		return nil, err
	}
	if isSink == nil {
		return nil, fmt.Errorf("routing: Direct needs an isSink classifier")
	}
	return &Direct{fifoScheme: base, isSink: isSink}, nil
}

// Xi implements Strategy: direct transmission has no gradient metric; a
// constant keeps the adaptive listening period at its floor.
func (d *Direct) Xi() float64 { return 0 }

// SenderMetrics implements Strategy.
func (d *Direct) SenderMetrics() (float64, float64, float64) { return 0, 0, 0 }

// Qualify implements Strategy: sensors never relay under direct
// transmission; only sinks answer (via the Sink strategy), so a Direct
// sensor's OnDataReceived is never reached.
func (d *Direct) Qualify(*packet.RTS) (bool, float64, int, float64) {
	return false, 0, d.fifo.Available(), 0
}

// BuildSchedule implements Strategy: transmit the head message to one sink
// candidate, if any answered.
func (d *Direct) BuildSchedule(cands []mac.Candidate) ([]packet.ScheduleEntry, *packet.Data) {
	head, ok := d.fifo.Head()
	if !ok {
		return nil, nil
	}
	for _, c := range sortCandidates(cands, byXi) {
		if d.isSink(c.Node) {
			d.pendingID = head.ID
			return []packet.ScheduleEntry{{Node: c.Node, FTD: 1}}, entryToData(d.id, head)
		}
	}
	return nil, nil
}

// OnTxOutcome implements Strategy: a sink ACK completes delivery; the local
// copy is discarded.
func (d *Direct) OnTxOutcome(_ []packet.ScheduleEntry, acked []packet.NodeID) {
	if len(acked) > 0 {
		d.fifo.Remove(d.pendingID)
	}
}

// Epidemic is the §2 "flooding" basic scheme: every encounter replicates
// the message to any neighbour with buffer space; nodes keep their copies.
// It bounds achievable delivery from above at the cost of extreme overhead.
// It has no periodic decay, so it implements no Decayer and schedules no
// decay events in any mode.
type Epidemic struct {
	fifoScheme
}

var _ Strategy = (*Epidemic)(nil)

// NewEpidemic builds the scheme for node id with the given buffer capacity.
func NewEpidemic(id packet.NodeID, queueCap int) (*Epidemic, error) {
	base, err := newFIFOScheme("EPIDEMIC", id, queueCap)
	if err != nil {
		return nil, err
	}
	return &Epidemic{base}, nil
}

// Xi implements Strategy: flooding treats all nodes alike.
func (e *Epidemic) Xi() float64 { return 0.5 }

// SenderMetrics implements Strategy.
func (e *Epidemic) SenderMetrics() (float64, float64, float64) { return 0, 0, 0 }

// Qualify implements Strategy: any buffer space qualifies (duplicate
// suppression happens at insert).
func (e *Epidemic) Qualify(*packet.RTS) (bool, float64, int, float64) {
	avail := e.fifo.Available()
	return avail > 0, 0.5, avail, 0
}

// BuildSchedule implements Strategy: replicate the head message to every
// candidate.
func (e *Epidemic) BuildSchedule(cands []mac.Candidate) ([]packet.ScheduleEntry, *packet.Data) {
	head, ok := e.fifo.Head()
	if !ok || len(cands) == 0 {
		return nil, nil
	}
	entries := make([]packet.ScheduleEntry, len(cands))
	for i, c := range cands {
		entries[i] = packet.ScheduleEntry{Node: c.Node, FTD: 0}
	}
	return entries, entryToData(e.id, head)
}

// OnTxOutcome implements Strategy: the sender keeps its copy but rotates
// the just-sent message to the back so other messages also spread.
func (e *Epidemic) OnTxOutcome(_ []packet.ScheduleEntry, acked []packet.NodeID) {
	if len(acked) == 0 {
		return
	}
	head, ok := e.fifo.Head()
	if !ok {
		return
	}
	e.fifo.Remove(head.ID)
	e.fifo.Insert(head)
}
