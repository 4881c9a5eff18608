// Package packet defines the frames exchanged by the DFT-MSN cross-layer
// protocol.
//
// The protocol (paper §3.2, Fig. 1) uses six frame kinds:
//
//	PREAMBLE  - channel grab after the adaptive listening period
//	RTS       - carries the sender's delivery probability ξ, the FTD of the
//	            outgoing message, and the contention-window length W
//	CTS       - reply from a qualified receiver: its ξ and available buffer
//	SCHEDULE  - the selected receiver IDs and the per-copy FTD for each
//	DATA      - the data message
//	ACK       - per-receiver acknowledgement in its assigned slot
//
// On the air, every control frame costs ControlBits (the paper's 50 bits)
// and every data frame costs DataBits (1000 bits): the simulator passes
// Frame values in memory and charges air time from Sizes.
package packet

import (
	"fmt"
	"math"
)

// NodeID identifies a node (sensor or sink) in the network.
type NodeID int32

// Broadcast is the destination meaning "all nodes in range".
const Broadcast NodeID = -1

// MessageID identifies an application data message. Copies of the same
// message on different nodes share the MessageID.
type MessageID uint64

// Kind discriminates frame types.
type Kind int

// Frame kinds, in protocol order.
const (
	KindPreamble Kind = iota + 1
	KindRTS
	KindCTS
	KindSchedule
	KindData
	KindAck
)

// String returns the protocol name of the kind.
func (k Kind) String() string {
	switch k {
	case KindPreamble:
		return "PREAMBLE"
	case KindRTS:
		return "RTS"
	case KindCTS:
		return "CTS"
	case KindSchedule:
		return "SCHEDULE"
	case KindData:
		return "DATA"
	case KindAck:
		return "ACK"
	default:
		return fmt.Sprintf("KIND(%d)", int(k))
	}
}

// Sizes gives the air cost of frames in bits. The paper's defaults are
// 50-bit control packets and 1000-bit data messages on a 10 kbps channel.
type Sizes struct {
	ControlBits int
	DataBits    int
}

// DefaultSizes returns the paper's §5 sizes.
func DefaultSizes() Sizes { return Sizes{ControlBits: 50, DataBits: 1000} }

// Validate reports an error for non-positive sizes.
func (s Sizes) Validate() error {
	if s.ControlBits <= 0 || s.DataBits <= 0 {
		return fmt.Errorf("packet: sizes must be positive, got %+v", s)
	}
	return nil
}

// Frame is any protocol frame.
type Frame interface {
	// Kind returns the frame type.
	Kind() Kind
	// Src returns the transmitting node.
	Src() NodeID
	// AirBits returns the frame's cost on the channel under sz.
	AirBits(sz Sizes) int
}

// Preamble occupies the channel and warns neighbours an RTS follows.
type Preamble struct {
	From NodeID
}

// RTS requests transmission: the paper's RTS carries the sender's nodal
// delivery probability, the FTD of the message at the head of its queue,
// and the contention-window length in slots.
type RTS struct {
	From NodeID
	// Xi is the sender's nodal delivery probability ξ_i in [0,1].
	Xi float64
	// FTD is the fault-tolerance degree of the outgoing message, in [0,1].
	FTD float64
	// Window is the contention window length W, in CTS slots.
	Window int
	// History is the sender's metric under history-based schemes (ZBR);
	// zero under the FTD scheme. Carried in the same 50-bit budget.
	History float64
}

// CTS is a qualified receiver's reply: its delivery probability and how many
// buffer slots it can offer a message with the RTS's FTD.
type CTS struct {
	From NodeID
	To   NodeID
	// Xi is the responder's delivery probability.
	Xi float64
	// BufferAvail is B_ψ(F): slots free or holding messages with larger FTD.
	BufferAvail int
	// History is the responder's metric under history-based schemes.
	History float64
}

// ScheduleEntry assigns one receiver its copy FTD and, implicitly by its
// index, its ACK slot.
type ScheduleEntry struct {
	Node NodeID
	// FTD is the fault-tolerance degree of the copy this receiver stores,
	// computed by the sender with Eq. 2.
	FTD float64
}

// Schedule announces the selected receiver set Φ and per-copy FTDs. The
// entry order defines the ACK slot order (entry k ACKs at (k+1)·t_ack after
// the data frame).
type Schedule struct {
	From    NodeID
	Entries []ScheduleEntry
}

// Data carries one application message.
type Data struct {
	From NodeID
	// ID identifies the message; copies share it.
	ID MessageID
	// Origin is the sensor that generated the message.
	Origin NodeID
	// CreatedAt is the generation virtual time, used for delay accounting
	// (stands in for a timestamp field a real deployment would carry).
	CreatedAt float64
	// PayloadBits is the application payload size.
	PayloadBits int
	// Hops counts transfers this copy has undergone so far.
	Hops int
}

// Ack acknowledges receipt of a data message.
type Ack struct {
	From NodeID
	To   NodeID
	ID   MessageID
}

// Interface compliance.
var (
	_ Frame = (*Preamble)(nil)
	_ Frame = (*RTS)(nil)
	_ Frame = (*CTS)(nil)
	_ Frame = (*Schedule)(nil)
	_ Frame = (*Data)(nil)
	_ Frame = (*Ack)(nil)
)

// Kind implements Frame.
func (*Preamble) Kind() Kind { return KindPreamble }

// Kind implements Frame.
func (*RTS) Kind() Kind { return KindRTS }

// Kind implements Frame.
func (*CTS) Kind() Kind { return KindCTS }

// Kind implements Frame.
func (*Schedule) Kind() Kind { return KindSchedule }

// Kind implements Frame.
func (*Data) Kind() Kind { return KindData }

// Kind implements Frame.
func (*Ack) Kind() Kind { return KindAck }

// Src implements Frame.
func (p *Preamble) Src() NodeID { return p.From }

// Src implements Frame.
func (r *RTS) Src() NodeID { return r.From }

// Src implements Frame.
func (c *CTS) Src() NodeID { return c.From }

// Src implements Frame.
func (s *Schedule) Src() NodeID { return s.From }

// Src implements Frame.
func (d *Data) Src() NodeID { return d.From }

// Src implements Frame.
func (a *Ack) Src() NodeID { return a.From }

// AirBits implements Frame.
func (*Preamble) AirBits(sz Sizes) int { return sz.ControlBits }

// AirBits implements Frame.
func (*RTS) AirBits(sz Sizes) int { return sz.ControlBits }

// AirBits implements Frame.
func (*CTS) AirBits(sz Sizes) int { return sz.ControlBits }

// AirBits implements Frame.
func (*Schedule) AirBits(sz Sizes) int { return sz.ControlBits }

// AirBits implements Frame.
func (d *Data) AirBits(sz Sizes) int {
	if d.PayloadBits > 0 {
		return d.PayloadBits
	}
	return sz.DataBits
}

// AirBits implements Frame.
func (*Ack) AirBits(sz Sizes) int { return sz.ControlBits }

// Validate checks field ranges on frames whose fields are probabilities.
func Validate(f Frame) error {
	inUnit := func(name string, v float64) error {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return fmt.Errorf("packet: %s %v out of [0,1]", name, v)
		}
		return nil
	}
	switch fr := f.(type) {
	case *RTS:
		if err := inUnit("RTS.Xi", fr.Xi); err != nil {
			return err
		}
		if err := inUnit("RTS.FTD", fr.FTD); err != nil {
			return err
		}
		if fr.Window < 1 {
			return fmt.Errorf("packet: RTS.Window %d must be >= 1", fr.Window)
		}
	case *CTS:
		if err := inUnit("CTS.Xi", fr.Xi); err != nil {
			return err
		}
		if fr.BufferAvail < 0 {
			return fmt.Errorf("packet: CTS.BufferAvail %d negative", fr.BufferAvail)
		}
	case *Schedule:
		for i, e := range fr.Entries {
			if err := inUnit(fmt.Sprintf("Schedule.Entries[%d].FTD", i), e.FTD); err != nil {
				return err
			}
		}
	case *Data:
		if fr.PayloadBits < 0 {
			return fmt.Errorf("packet: Data.PayloadBits %d negative", fr.PayloadBits)
		}
	}
	return nil
}
