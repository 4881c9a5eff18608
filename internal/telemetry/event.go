// Package telemetry is the simulator's typed observability layer and its
// one event log: trace v2.
//
// Every node-lifecycle and protocol event is a schema-versioned Event with
// structured fields, so tools can query a run instead of grepping it. The
// package provides
//
//   - the Event model and the Recorder interface the protocol stack emits
//     into (the Nop recorder is allocation-free, so untraced runs pay
//     nothing);
//   - Verify, which checks the node-lifecycle rules (§4.1 sleep/wake,
//     crash and reboot) over a recorded event stream;
//   - one on-disk encoding, JSONL (one event per line after a schema
//     header), which the SSE stream carries too, and its reader;
//   - a provenance Ledger reconstructing each message's custody chain
//     (origin → relays → sink/drop) from the event stream;
//   - a metrics Registry of counters, gauges and fixed-bucket histograms,
//     periodically snapshotted into a time series via the simulation
//     kernel's post-event hook.
//
// cmd/dftstats is the offline analysis front-end for trace-v2 files.
package telemetry

import "dftmsn/internal/packet"

// SchemaVersion identifies the trace-v2 event schema. Readers reject files
// written with a newer schema.
const SchemaVersion = 2

// EventType enumerates the trace-v2 event catalog.
type EventType uint8

// The event catalog. See docs/PROTOCOL.md §10 for field semantics per type.
const (
	// EvNone is the zero value and never appears in a valid trace.
	EvNone EventType = iota
	// EvGen: node sensed a message and its queue accepted it. Msg set.
	EvGen
	// EvGenDrop: node sensed a message but the queue rejected it. Msg set.
	EvGenDrop
	// EvTx: node multicast a data message to a receiver set. Msg set,
	// Count = scheduled receivers.
	EvTx
	// EvRx: node received a scheduled data copy. Msg and Peer (sender)
	// set, FTD = the copy's assigned Eq. 2 FTD, Kept = queue accepted it.
	EvRx
	// EvTxOutcome: the sender's ACK window closed. Count = scheduled
	// receivers, Aux = acknowledged receivers.
	EvTxOutcome
	// EvDrop: a queued copy left the queue by a drop rule. Msg set, FTD =
	// the copy's FTD at drop time, Aux = a DropReason.
	EvDrop
	// EvDeliver: a sink took custody of a message. Msg set, Value =
	// generation-to-sink delay in seconds, Count = hop count.
	EvDeliver
	// EvSleep: node turned its radio off for Value seconds (§4.1).
	EvSleep
	// EvWake: node's radio finished powering back up.
	EvWake
	// EvCrash: fault injection took the node down recoverably. Count =
	// queued copies destroyed with it.
	EvCrash
	// EvReboot: a crashed node recovered.
	EvReboot
	// EvKill: nothing emits it; fault injection's permanent kills record
	// EvCrash with no reboot. It stays in the catalog so older traces that
	// name it still decode.
	EvKill
	// EvDied: the node exhausted its battery. Value = the budget in joules.
	EvDied
	// EvCTS: node answered an RTS with a CTS. Peer = the RTS sender,
	// Value = the replier's delivery probability ξ.
	EvCTS
	// EvAck: node acknowledged a received data copy. Msg and Peer (the
	// data sender) set.
	EvAck
	// EvFTDUpdate: the sender recomputed its retained copy's FTD after a
	// multicast (Eq. 3). Msg set, Value = FTD before, FTD = FTD after,
	// Kept = the copy stayed queued.
	EvFTDUpdate

	numEventTypes // sentinel, keep last
)

// DropReason codes the Aux field of EvDrop.
const (
	// DropThreshold: the copy's FTD exceeded the §3.1.2 drop bound.
	DropThreshold int32 = 1
	// DropFull: the queue overflowed and the copy sorted last.
	DropFull int32 = 2
	// DropCrash: a node crash destroyed the queued copy.
	DropCrash int32 = 3
)

// DropReasonString names a drop reason code.
func DropReasonString(r int32) string {
	switch r {
	case DropThreshold:
		return "threshold"
	case DropFull:
		return "full"
	case DropCrash:
		return "crash"
	default:
		return "unknown"
	}
}

var eventNames = [numEventTypes]string{
	EvNone:      "none",
	EvGen:       "gen",
	EvGenDrop:   "gen-drop",
	EvTx:        "tx",
	EvRx:        "rx",
	EvTxOutcome: "tx-outcome",
	EvDrop:      "drop",
	EvDeliver:   "deliver",
	EvSleep:     "sleep",
	EvWake:      "wake",
	EvCrash:     "crash",
	EvReboot:    "reboot",
	EvKill:      "kill",
	EvDied:      "died",
	EvCTS:       "cts",
	EvAck:       "ack",
	EvFTDUpdate: "ftd-update",
}

// String returns the wire name of the event type.
func (t EventType) String() string {
	if t < numEventTypes {
		return eventNames[t]
	}
	return "invalid"
}

// ParseEventType resolves a wire name; ok is false for unknown names.
func ParseEventType(s string) (EventType, bool) {
	for t := EventType(1); t < numEventTypes; t++ {
		if eventNames[t] == s {
			return t, true
		}
	}
	return EvNone, false
}

// EventTypes lists every valid event type in catalog order.
func EventTypes() []EventType {
	out := make([]EventType, 0, numEventTypes-1)
	for t := EventType(1); t < numEventTypes; t++ {
		out = append(out, t)
	}
	return out
}

// Event is one typed trace-v2 record. Which fields are meaningful depends
// on Type (see the catalog above); unused fields are zero. Events are plain
// values: recording one through the Nop recorder allocates nothing.
type Event struct {
	// Time is the virtual time of the event in seconds.
	Time float64
	// Node is the node the event happened at.
	Node packet.NodeID
	// Type selects the catalog entry.
	Type EventType
	// Msg is the message concerned (0 = none; message IDs start at 1).
	Msg packet.MessageID
	// Peer is the counterpart node for rx/cts/ack events.
	Peer packet.NodeID
	// FTD is a fault-tolerance degree (rx: assigned copy FTD; drop: FTD at
	// drop time; ftd-update: FTD after the Eq. 3 update).
	FTD float64
	// Value is a type-specific scalar (sleep: duration s; deliver: delay s;
	// died: joules; cts: ξ; ftd-update: FTD before the update).
	Value float64
	// Count is a type-specific count (tx/tx-outcome: scheduled receivers;
	// deliver: hops; crash: copies destroyed).
	Count int32
	// Aux is a secondary count or code (tx-outcome: ACKed receivers;
	// drop: DropReason).
	Aux int32
	// Kept reports whether the copy stayed queued (rx, ftd-update).
	Kept bool
}

// hasPeer reports whether the type's Peer field is meaningful (and must be
// preserved on the wire even when zero — node 0 is a valid node).
func (t EventType) hasPeer() bool {
	return t == EvRx || t == EvCTS || t == EvAck
}
