package routing

import (
	"fmt"
	"sort"

	"dftmsn/internal/buffer"
	"dftmsn/internal/packet"
)

// PendingXiState is one entry of FAD's pending-multicast ξ cache, keyed by
// receiver node ID. Snapshots carry the cache as a node-sorted slice so the
// encoding is deterministic (the live cache is a map).
type PendingXiState struct {
	Node packet.NodeID
	Xi   float64
}

// State is a routing strategy's snapshot. One struct covers every scheme;
// fields that do not apply to a strategy stay at their zero values. Kind
// guards against overlaying a snapshot onto the wrong scheme.
type State struct {
	Kind string // Strategy.Name() of the captured scheme

	// FAD: delivery probability and the Eq. 1 timeout clock.
	Xi     float64
	LastTx float64
	TxEver bool
	Queue  buffer.QueueState

	// FIFO-backed schemes (ZBR, Direct, Epidemic).
	FIFO buffer.FIFOState

	// Lazy closed-form decay (FAD, ZBR).
	LazyRunning bool
	NextTick    float64
	LazyTicks   uint64

	// In-flight multicast context (FAD, ZBR, Direct).
	PendingID  packet.MessageID
	PendingXis []PendingXiState

	// ZBR: direct-to-sink history EWMA and the per-epoch contact flag.
	History     float64
	SinkContact bool

	// Sink: copies delivered so far.
	Delivered uint64
}

// errKind reports a snapshot/strategy scheme mismatch.
func errKind(want, got string) error {
	return fmt.Errorf("routing: snapshot kind %q does not match strategy %q", got, want)
}

// ExportState captures the scheme without mutating it: lazy-decay epochs
// pending at capture time stay pending and replay after restore exactly as
// they would have live.
func (f *FAD) ExportState() State {
	st := State{
		Kind:        f.Name(),
		Xi:          f.prob.Value(),
		LastTx:      f.lastTx,
		TxEver:      f.txEver,
		Queue:       f.queue.ExportState(),
		LazyRunning: f.running,
		NextTick:    f.next,
		LazyTicks:   f.elided,
		PendingID:   f.pendingID,
	}
	for node, xi := range f.pendingXis {
		st.PendingXis = append(st.PendingXis, PendingXiState{Node: node, Xi: xi})
	}
	sort.Slice(st.PendingXis, func(i, j int) bool {
		return st.PendingXis[i].Node < st.PendingXis[j].Node
	})
	return st
}

// RestoreState overlays a snapshot onto a freshly built FAD with the same
// configuration.
func (f *FAD) RestoreState(st State) error {
	if st.Kind != f.Name() {
		return errKind(f.Name(), st.Kind)
	}
	f.prob.RestoreValue(st.Xi)
	f.lastTx = st.LastTx
	f.txEver = st.TxEver
	f.queue.RestoreState(st.Queue)
	f.running, f.next, f.elided = st.LazyRunning, st.NextTick, st.LazyTicks
	f.pendingID = st.PendingID
	clear(f.pendingXis)
	for _, p := range st.PendingXis {
		f.pendingXis[p.Node] = p.Xi
	}
	return nil
}

// ExportState captures the scheme.
func (b *fifoScheme) ExportState() State {
	return State{Kind: b.name, FIFO: b.fifo.ExportState(), PendingID: b.pendingID}
}

// RestoreState overlays a snapshot onto a freshly built scheme with the
// same configuration.
func (b *fifoScheme) RestoreState(st State) error {
	if st.Kind != b.name {
		return errKind(b.name, st.Kind)
	}
	b.fifo.RestoreState(st.FIFO)
	b.pendingID = st.PendingID
	return nil
}

// ExportState captures the scheme without mutating it.
func (z *ZBR) ExportState() State {
	st := z.fifoScheme.ExportState()
	st.History, st.SinkContact = z.history, z.sinkContact
	st.LazyRunning, st.NextTick, st.LazyTicks = z.running, z.next, z.elided
	return st
}

// RestoreState overlays a snapshot onto a freshly built ZBR with the same
// configuration.
func (z *ZBR) RestoreState(st State) error {
	if err := z.fifoScheme.RestoreState(st); err != nil {
		return err
	}
	z.history, z.sinkContact = st.History, st.SinkContact
	z.running, z.next, z.elided = st.LazyRunning, st.NextTick, st.LazyTicks
	return nil
}

// ExportState captures the sink's delivery counter.
func (s *Sink) ExportState() State {
	return State{Kind: s.Name(), Delivered: s.count}
}

// RestoreState overlays a snapshot onto a freshly built Sink.
func (s *Sink) RestoreState(st State) error {
	if st.Kind != s.Name() {
		return errKind(s.Name(), st.Kind)
	}
	s.count = st.Delivered
	return nil
}

// Exporter is implemented by every strategy in this package; the node layer
// uses it to capture and overlay routing state generically.
type Exporter interface {
	ExportState() State
	RestoreState(State) error
}

var (
	_ Exporter = (*FAD)(nil)
	_ Exporter = (*ZBR)(nil)
	_ Exporter = (*Direct)(nil)
	_ Exporter = (*Epidemic)(nil)
	_ Exporter = (*Sink)(nil)
)
