package telemetry

import (
	"fmt"

	"dftmsn/internal/packet"
)

// Violation is one node-lifecycle breach found in an event stream.
type Violation struct {
	Event  Event
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%.6f node=%d %s: %s", v.Event.Time, v.Event.Node, v.Event.Type, v.Reason)
}

// Verify checks the node-lifecycle rules over a recorded event stream:
//
//  1. events are globally time-ordered (recorders see them in virtual-time
//     order);
//  2. sleep/wake alternate per node — no double sleep, no wake without a
//     preceding sleep (§4.1);
//  3. a sleeping node's radio is off: it neither multicasts (tx), receives
//     (rx), closes an ACK window (tx-outcome), answers an RTS (cts), nor
//     acknowledges data (ack);
//  4. died/kill is terminal — no further events from that node;
//  5. crash silences a node until its reboot, and reboot only follows a
//     crash. The one event a crashed node may still carry is a drop with
//     reason DropCrash: the queued copies the crash destroyed, recorded
//     right after it. The reboot re-enters the cycle loop through a wake
//     that needs no preceding sleep;
//  6. between reboot and that boot wake the node is still booting: it
//     neither touches the radio (rule 3's events) nor goes to sleep.
//
// Sensing (gen, gen-drop), deliveries, FTD updates and drops are bound
// only by rules 1, 4 and 5. Verify returns every violation found (none for
// a conformant stream).
func Verify(events []Event) []Violation {
	type nodeState struct {
		asleep    bool
		dead      bool
		crashed   bool
		rebooting bool // rebooted; the boot wake is pending
	}
	var out []Violation
	flag := func(ev Event, reason string) { out = append(out, Violation{ev, reason}) }
	states := make(map[packet.NodeID]*nodeState)
	for i, ev := range events {
		if i > 0 && ev.Time < events[i-1].Time {
			flag(ev, fmt.Sprintf("time went backwards (%.6f after %.6f)", ev.Time, events[i-1].Time))
		}
		st := states[ev.Node]
		if st == nil {
			st = &nodeState{}
			states[ev.Node] = st
		}
		if st.dead {
			flag(ev, "event after death")
			continue
		}
		if st.crashed && ev.Type != EvReboot && !(ev.Type == EvDrop && ev.Aux == DropCrash) {
			flag(ev, "event while crashed")
			continue
		}
		switch ev.Type {
		case EvSleep:
			if st.asleep {
				flag(ev, "sleep while already asleep")
			}
			if st.rebooting {
				flag(ev, "sleep before the boot wake")
			}
			st.asleep = true
			st.rebooting = false
		case EvWake:
			if !st.asleep && !st.rebooting {
				flag(ev, "wake without preceding sleep")
			}
			st.asleep = false
			st.rebooting = false
		case EvTx, EvRx, EvTxOutcome, EvCTS, EvAck:
			if st.asleep {
				flag(ev, "radio activity while asleep")
			}
			if st.rebooting {
				flag(ev, "radio activity before boot wake")
			}
		case EvDied, EvKill:
			st.dead = true
		case EvCrash:
			st.crashed = true
		case EvReboot:
			if !st.crashed {
				flag(ev, "reboot of a node that was not crashed")
			}
			st.crashed = false
			st.rebooting = true
		}
	}
	return out
}
