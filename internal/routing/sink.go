package routing

import (
	"fmt"

	"dftmsn/internal/buffer"
	"dftmsn/internal/mac"
	"dftmsn/internal/packet"
)

// Sink is the receive-only strategy run by sink nodes under every scheme:
// delivery probability pinned at 1, effectively unlimited buffer, always
// qualified, never sends. Received messages are handed to the deliver
// callback (which records metrics and forwards to the backbone in a real
// deployment).
type Sink struct {
	id      packet.NodeID
	deliver DeliverFunc
	now     func() float64
	count   uint64
}

var _ Strategy = (*Sink)(nil)

// NewSink builds a sink strategy. now supplies virtual time for delivery
// stamps; deliver receives each arriving copy (duplicates included).
func NewSink(id packet.NodeID, now func() float64, deliver DeliverFunc) (*Sink, error) {
	if now == nil || deliver == nil {
		return nil, fmt.Errorf("routing: sink needs now and deliver callbacks")
	}
	return &Sink{id: id, deliver: deliver, now: now}, nil
}

// Name implements Strategy.
func (s *Sink) Name() string { return "SINK" }

// Xi implements Strategy: a sink's delivery probability is 1 by definition.
func (s *Sink) Xi() float64 { return 1 }

// Received returns the number of copies delivered to this sink.
func (s *Sink) Received() uint64 { return s.count }

// HasData implements Strategy: sinks never source data into the DFT-MSN.
func (s *Sink) HasData() bool { return false }

// SenderMetrics implements Strategy (unused: sinks never send).
func (s *Sink) SenderMetrics() (float64, float64, float64) { return 1, 1, 1 }

// Qualify implements Strategy: a sink is always a qualified receiver; its
// history metric is also 1 so history-based schemes prefer it maximally.
func (s *Sink) Qualify(*packet.RTS) (bool, float64, int, float64) {
	const plentiful = 1 << 20 // sinks forward upstream; no practical limit
	return true, 1, plentiful, 1
}

// BuildSchedule implements Strategy (unreachable: HasData is false).
func (s *Sink) BuildSchedule([]mac.Candidate) ([]packet.ScheduleEntry, *packet.Data) {
	return nil, nil
}

// OnDataReceived implements Strategy: the message has arrived.
func (s *Sink) OnDataReceived(d *packet.Data, _ packet.ScheduleEntry) bool {
	s.count++
	s.deliver(d, s.now())
	return true
}

// OnTxOutcome implements Strategy (unreachable).
func (s *Sink) OnTxOutcome([]packet.ScheduleEntry, []packet.NodeID) {}

// OnCycleEnd implements Strategy. A sink's ξ is pinned at 1, so the
// strategy implements no Decayer and schedules no decay events in any
// mode.
func (s *Sink) OnCycleEnd(mac.Outcome, float64) {}

// Generate implements Strategy: sinks do not sense.
func (s *Sink) Generate(packet.MessageID, float64, int) bool { return false }

// ImportantCount implements Strategy.
func (s *Sink) ImportantCount() int { return 0 }

// QueueLen implements Strategy.
func (s *Sink) QueueLen() int { return 0 }

// QueueCap implements Strategy.
func (s *Sink) QueueCap() int { return 1 }

// Drops implements Strategy.
func (s *Sink) Drops() buffer.DropCounts { return buffer.DropCounts{} }

// WipeQueue implements Strategy: sinks hold no sensor queue.
func (s *Sink) WipeQueue() []packet.MessageID { return nil }

// ResetRouting implements Strategy: a sink's ξ is 1 by definition.
func (s *Sink) ResetRouting() {}
