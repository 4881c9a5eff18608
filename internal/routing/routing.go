// Package routing implements the message-forwarding schemes evaluated in
// the paper's §5, as strategies plugged into the shared cross-layer MAC
// engine:
//
//   - FAD: the paper's fault-tolerance-degree scheme (used by OPT, NOOPT
//     and NOSLEEP), combining the nodal delivery probability ξ (Eq. 1),
//     per-copy FTDs (Eqs. 2-3), the FTD-sorted queue, and the §3.2.2
//     receiver-selection procedure.
//   - ZBR: ZebraNet's history-based scheme, the paper's comparison
//     baseline — forward a single copy to a neighbour with a higher
//     history of reaching the sink directly.
//   - Direct and Epidemic: the two basic DFT-MSN schemes of the paper's
//     §2 (direct transmission and flooding), provided as extensions.
//   - Sink: the receive-only strategy run by sink nodes under every
//     scheme.
package routing

import (
	"sort"

	"dftmsn/internal/buffer"
	"dftmsn/internal/mac"
	"dftmsn/internal/packet"
)

// Strategy is the routing half a core node delegates to. It mirrors
// mac.Policy minus the MAC-owned parameters (contention window, listening
// period) and adds lifecycle hooks for queue statistics and decay.
type Strategy interface {
	// Name identifies the scheme for reports.
	Name() string
	// HasData reports whether a message is ready to send.
	HasData() bool
	// SenderMetrics returns the RTS fields: delivery probability ξ, the
	// head message's FTD, and the scheme's history metric.
	SenderMetrics() (xi, ftdVal, history float64)
	// Qualify answers an overheard RTS.
	Qualify(rts *packet.RTS) (ok bool, xi float64, bufferAvail int, history float64)
	// BuildSchedule selects receivers and produces the data frame.
	BuildSchedule(cands []mac.Candidate) ([]packet.ScheduleEntry, *packet.Data)
	// OnDataReceived stores an accepted message copy. It reports whether
	// the copy was actually kept (queue rules may reject it); a rejected
	// copy is not acknowledged, so the sender does not count it as
	// coverage.
	OnDataReceived(d *packet.Data, entry packet.ScheduleEntry) bool
	// OnTxOutcome applies queue/ξ/FTD updates after the ACK window.
	OnTxOutcome(entries []packet.ScheduleEntry, acked []packet.NodeID)
	// OnCycleEnd runs per-working-cycle upkeep (e.g. ZBR history decay).
	OnCycleEnd(out mac.Outcome, now float64)
	// Generate inserts a locally sensed message into the queue, returning
	// false if it was dropped immediately.
	Generate(id packet.MessageID, now float64, payloadBits int) bool
	// ImportantCount returns K_F for the Eq. 5 sleep α (scheme-defined).
	ImportantCount() int
	// QueueLen and QueueCap expose buffer occupancy.
	QueueLen() int
	QueueCap() int
	// Drops returns the queue's drop counters.
	Drops() buffer.DropCounts
	// Xi returns the node's current delivery-probability-like metric, used
	// by the MAC layer for the Eq. 9 adaptive listening period.
	Xi() float64
	// WipeQueue empties the queue — a crash destroying the node's copies —
	// and returns the destroyed message IDs (nil when already empty).
	WipeQueue() []packet.MessageID
	// ResetRouting clears learned soft state (ξ, history) back to the
	// strategy's initial value — a reboot that lost RAM but kept flash.
	ResetRouting()
}

// DeliverFunc is invoked by the Sink strategy when a message copy arrives.
type DeliverFunc func(d *packet.Data, now float64)

// sortCandidates orders cands by decreasing key with node ID as the
// deterministic tie-break: ξ for the paper's Ξ ordering, history for ZBR's
// preference order.
func sortCandidates(cands []mac.Candidate, key func(mac.Candidate) float64) []mac.Candidate {
	out := make([]mac.Candidate, len(cands))
	copy(out, cands)
	sort.Slice(out, func(i, j int) bool {
		if ki, kj := key(out[i]), key(out[j]); ki != kj {
			return ki > kj
		}
		return out[i].Node < out[j].Node
	})
	return out
}

func byXi(c mac.Candidate) float64      { return c.Xi }
func byHistory(c mac.Candidate) float64 { return c.History }

// entryToData builds the data frame for a queued entry.
func entryToData(from packet.NodeID, e buffer.Entry) *packet.Data {
	return &packet.Data{
		From:        from,
		ID:          e.ID,
		Origin:      e.Origin,
		CreatedAt:   e.CreatedAt,
		PayloadBits: e.PayloadBits,
		Hops:        e.Hops,
	}
}
