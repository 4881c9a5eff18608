// Package ftd implements the two protocol parameters of the paper's §3.1:
// the nodal delivery probability ξ (Eq. 1) and the message fault-tolerance
// degree, FTD (Eqs. 2 and 3), plus the synchronous-phase receiver-selection
// procedure of §3.2.2.
package ftd

import (
	"fmt"
	"math"
)

// clampUnit forces v into [0,1], absorbing floating-point drift at the
// boundaries of the product formulas.
func clampUnit(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// DeliveryProb tracks a node's delivery probability ξ.
//
// ξ is initialised to zero and updated per Eq. 1:
//
//	transmission to k: ξ ← (1−α)·ξ + α·ξ_k   (ξ_k = 1 if k is a sink)
//	timeout:           ξ ← (1−α)·ξ
//
// Alpha keeps partial memory of historic status. Sinks keep no tracker:
// their ξ is 1 by definition (routing.Sink).
type DeliveryProb struct {
	alpha float64
	xi    float64
}

// NewDeliveryProb returns a tracker with the given memory constant α in
// [0,1].
func NewDeliveryProb(alpha float64) (*DeliveryProb, error) {
	if alpha < 0 || alpha > 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("ftd: alpha %v out of [0,1]", alpha)
	}
	return &DeliveryProb{alpha: alpha}, nil
}

// Value returns the current ξ, always in [0,1].
func (d *DeliveryProb) Value() float64 { return d.xi }

// OnTransmission applies the Eq. 1 transmission update toward the
// receiver's probability xiK.
func (d *DeliveryProb) OnTransmission(xiK float64) {
	d.xi = clampUnit((1-d.alpha)*d.xi + d.alpha*clampUnit(xiK))
}

// PeekTimeout is the Eq. 1 timeout rule: the value xi takes after one
// decay step of an interval with no transmission. It does not mutate the
// tracker; callers store the result with RestoreValue. Eager ticks, lazy
// settling and look-ahead planners all iterate this one expression, so
// they follow the same trajectory bit for bit (a closed-form power would
// round differently).
func (d *DeliveryProb) PeekTimeout(xi float64) float64 {
	return clampUnit((1 - d.alpha) * xi)
}

// RestoreValue overwrites ξ, clamped to [0,1]: a snapshotted value, or the
// result of PeekTimeout.
func (d *DeliveryProb) RestoreValue(xi float64) { d.xi = clampUnit(xi) }

// Reset returns ξ to its initial value, 0.
func (d *DeliveryProb) Reset() { d.xi = 0 }

// CopyFTD computes Eq. 2: the FTD assigned to the copy sent to receiver j,
// given the sender's pre-multicast FTD, the sender's ξ, and the ξ of every
// *other* selected receiver (excluding j):
//
//	F_j = 1 − (1−F_i)·(1−ξ_i)·Π_{m∈Φ, m≠j}(1−ξ_m)
//
// Intuitively: the copy at j is "covered" if the sender's retained copy gets
// through, or any other receiver's copy does.
func CopyFTD(senderFTD, senderXi float64, otherXis []float64) float64 {
	p := (1 - clampUnit(senderFTD)) * (1 - clampUnit(senderXi))
	for _, xi := range otherXis {
		p *= 1 - clampUnit(xi)
	}
	return clampUnit(1 - p)
}

// SenderFTD computes Eq. 3: the sender's FTD after multicasting to the
// receiver set with the given ξ values:
//
//	F_i = 1 − (1−F_i_before)·Π_{m∈Φ}(1−ξ_m)
func SenderFTD(before float64, receiverXis []float64) float64 {
	p := 1 - clampUnit(before)
	for _, xi := range receiverXis {
		p *= 1 - clampUnit(xi)
	}
	return clampUnit(1 - p)
}

// Aggregate returns 1 − (1−F)·Π(1−ξ_m): the probability that the message is
// delivered by at least one of the listed receivers or was already covered
// with probability F. It is the loop guard of the §3.2.2 selection
// procedure.
func Aggregate(ftdValue float64, receiverXis []float64) float64 {
	return SenderFTD(ftdValue, receiverXis)
}

// Candidate is a potential receiver as learned from its CTS.
type Candidate struct {
	// Node is an opaque identifier carried through selection.
	Node int
	// Xi is the candidate's delivery probability from its CTS.
	Xi float64
	// BufferAvail is B_ψ(F): slots the candidate can offer the message.
	BufferAvail int
}

// SelectReceivers implements the §3.2.2 procedure: walk candidates in
// decreasing ξ order and add each qualified one (ξ > senderXi and buffer
// space available) to Φ until the aggregate delivery probability of the
// message exceeds threshold R. It returns the chosen subset in the order
// added (which is also decreasing ξ), never nil.
//
// The candidates slice must already be sorted by decreasing Xi; this is the
// "sorted by a decreasing order of their delivery probabilities" set Ξ of
// the paper. The function does not re-sort, so callers control tie-breaks
// deterministically.
func SelectReceivers(senderXi, msgFTD, threshold float64, candidates []Candidate) []Candidate {
	selected := make([]Candidate, 0, len(candidates))
	xis := make([]float64, 0, len(candidates))
	for _, c := range candidates {
		if c.Xi > senderXi && c.BufferAvail > 0 {
			selected = append(selected, c)
			xis = append(xis, c.Xi)
		}
		if Aggregate(msgFTD, xis) > threshold {
			break
		}
	}
	return selected
}
