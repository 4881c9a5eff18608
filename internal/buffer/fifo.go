package buffer

import (
	"fmt"

	"dftmsn/internal/packet"
)

// FIFO is a bounded first-in-first-out message queue, used by the baseline
// schemes (ZBR, direct transmission, epidemic flooding) that do not manage
// their queues by FTD. A full FIFO drops the incoming message (drop-tail).
// Like Queue, its storage grows on demand up to capacity.
type FIFO struct {
	entries  []Entry
	capacity int
	drops    DropCounts
}

// NewFIFO returns a FIFO holding at most capacity entries.
func NewFIFO(capacity int) (*FIFO, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("buffer: capacity %d must be positive", capacity)
	}
	return &FIFO{capacity: capacity}, nil
}

// Len returns the number of stored entries.
func (f *FIFO) Len() int { return len(f.entries) }

// Cap returns the capacity.
func (f *FIFO) Cap() int { return f.capacity }

// Drops returns the drop counters (only Full applies to a FIFO).
func (f *FIFO) Drops() DropCounts { return f.drops }

// Head returns the oldest entry without removing it.
func (f *FIFO) Head() (Entry, bool) {
	if len(f.entries) == 0 {
		return Entry{}, false
	}
	return f.entries[0], true
}

// Entries returns a copy of the contents in arrival order.
func (f *FIFO) Entries() []Entry {
	out := make([]Entry, len(f.entries))
	copy(out, f.entries)
	return out
}

// Contains reports whether a copy of message id is queued.
func (f *FIFO) Contains(id packet.MessageID) bool {
	for i := range f.entries {
		if f.entries[i].ID == id {
			return true
		}
	}
	return false
}

// Insert appends a message copy, rejecting duplicates and overflow.
// It reports whether the entry was stored (true also for duplicates, which
// are already present).
func (f *FIFO) Insert(e Entry) bool {
	if f.Contains(e.ID) {
		return true
	}
	if len(f.entries) >= f.capacity {
		f.drops.Full++
		return false
	}
	f.entries = growOne(f.entries, f.capacity)
	f.entries[len(f.entries)-1] = e
	return true
}

// Remove deletes the copy of message id, reporting whether it was present.
func (f *FIFO) Remove(id packet.MessageID) bool {
	for i := range f.entries {
		if f.entries[i].ID == id {
			f.entries = append(f.entries[:i], f.entries[i+1:]...)
			return true
		}
	}
	return false
}

// Wipe empties the FIFO and returns the IDs of the discarded entries —
// what a node crash destroys. Wiped entries are not counted as drops.
func (f *FIFO) Wipe() []packet.MessageID {
	if len(f.entries) == 0 {
		return nil
	}
	ids := make([]packet.MessageID, len(f.entries))
	for i := range f.entries {
		ids[i] = f.entries[i].ID
	}
	f.entries = f.entries[:0]
	return ids
}

// Available returns the number of free slots.
func (f *FIFO) Available() int { return f.capacity - len(f.entries) }

// FIFOState is a FIFO's snapshot: contents in arrival order plus the drop
// counters. Entry seq stamps are unused by FIFOs but carried for fidelity.
type FIFOState struct {
	Entries []EntryState
	Drops   DropCounts
}

// ExportState captures the FIFO for a snapshot.
func (f *FIFO) ExportState() FIFOState {
	st := FIFOState{Drops: f.drops}
	for _, e := range f.entries {
		st.Entries = append(st.Entries, EntryState{
			ID: e.ID, Origin: e.Origin, CreatedAt: e.CreatedAt,
			PayloadBits: e.PayloadBits, FTD: e.FTD, Hops: e.Hops, Seq: e.seq,
		})
	}
	return st
}

// RestoreState overlays a snapshot onto a freshly built FIFO with the same
// capacity.
func (f *FIFO) RestoreState(st FIFOState) {
	f.entries = restoreEntries(f.entries, st.Entries)
	f.drops = st.Drops
}
