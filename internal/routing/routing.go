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
	"fmt"
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

// DecayTicker is the advisory companion to Strategy for schemes whose
// soft state decays on a period (FAD's Eq. 1 timeout, ZBR's history
// epochs). It is no longer part of Strategy itself: the node layer type-
// asserts for it and only then runs a per-node decay ticker — the eager
// control arm. Schemes with constant metrics (Direct, Epidemic, Sink)
// implement neither this nor LazyDecayer and schedule no decay events in
// any mode.
type DecayTicker interface {
	// OnDecayTick runs one decay epoch ending at time now.
	OnDecayTick(now float64)
}

// LazyDecayer is implemented by strategies that can evaluate their
// periodic decay in closed form on read instead of firing one kernel
// event per epoch. The contract mirrors the eager ticker exactly: epochs
// land at start+interval, start+2·interval, … (the same floating-point
// accumulation a sim.Ticker produces), each epoch applies the identical
// update the strategy's OnDecayTick would have applied at that instant,
// and reads between epochs see the value as of the last epoch. Lifecycle
// calls bracket the epoch sequence the way the node brackets its ticker:
// StartLazyDecay where the ticker would Start (node start, reboot),
// StopLazyDecay where it would Stop (node stop, crash, battery death) —
// pending state settles through the stop time and then freezes, so
// observers of a dead node read the value it died with.
type LazyDecayer interface {
	// EnableLazyDecay switches the strategy from ticker-driven decay to
	// closed-form evaluation. clock supplies the current virtual time for
	// settle-on-read; interval is the epoch period the eager ticker would
	// have used.
	EnableLazyDecay(clock func() float64, interval float64)
	// StartLazyDecay begins an epoch sequence: the first epoch ends one
	// interval after now.
	StartLazyDecay(now float64)
	// StopLazyDecay settles epochs through now, then freezes the value.
	StopLazyDecay(now float64)
	// XiAt returns the value Xi() will report at virtual time t >= now,
	// assuming no transmission or reset happens in between. It does not
	// mutate state beyond settling already-elapsed epochs; idle-cycle
	// planners use it to pre-compute contention windows.
	XiAt(t float64) float64
	// ElidedDecayTicks returns the cumulative number of epochs evaluated
	// in closed form — each one a kernel event the eager arm would have
	// scheduled and fired.
	ElidedDecayTicks() uint64
}

// DeliverFunc is invoked by the Sink strategy when a message copy arrives.
type DeliverFunc func(d *packet.Data, now float64)

// sortCandidates orders cands by decreasing Xi with node ID as the
// deterministic tie-break, matching the paper's Ξ ordering.
func sortCandidates(cands []mac.Candidate) []mac.Candidate {
	out := make([]mac.Candidate, len(cands))
	copy(out, cands)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Xi != out[j].Xi {
			return out[i].Xi > out[j].Xi
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// sortCandidatesByHistory orders cands by decreasing History with node ID
// tie-break (ZBR's preference order).
func sortCandidatesByHistory(cands []mac.Candidate) []mac.Candidate {
	out := make([]mac.Candidate, len(cands))
	copy(out, cands)
	sort.Slice(out, func(i, j int) bool {
		if out[i].History != out[j].History {
			return out[i].History > out[j].History
		}
		return out[i].Node < out[j].Node
	})
	return out
}

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

// validateCommon checks arguments shared by the strategy constructors.
func validateCommon(id packet.NodeID, queueCap int) error {
	if queueCap <= 0 {
		return fmt.Errorf("routing: queue capacity %d must be positive", queueCap)
	}
	_ = id
	return nil
}
