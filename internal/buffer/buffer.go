// Package buffer implements the data-queue management of the paper's §3.1.2.
//
// Each sensor keeps its message copies sorted by increasing fault-tolerance
// degree (FTD): the smallest-FTD (most important) message sits at the head
// and is transmitted first. A message is dropped when (a) the queue is full
// and it sorts last, or (b) its FTD exceeds a configured threshold — it is
// then likely enough to be delivered by other copies in the network.
package buffer

import (
	"fmt"
	"math"

	"dftmsn/internal/packet"
)

// Entry is one message copy in a queue.
type Entry struct {
	// ID identifies the message; copies share it.
	ID packet.MessageID
	// Origin is the sensor that generated the message.
	Origin packet.NodeID
	// CreatedAt is the message generation time (virtual seconds).
	CreatedAt float64
	// PayloadBits is the data payload size.
	PayloadBits int
	// FTD is the fault-tolerance degree of this copy, in [0,1].
	FTD float64
	// Hops counts how many transfers this copy has undergone.
	Hops int
	seq  uint64 // insertion order, for stable FTD ties
}

// DropCounts reports why entries left a queue other than by Remove.
type DropCounts struct {
	// Full counts drops because the queue overflowed.
	Full uint64
	// Threshold counts drops because FTD exceeded the threshold.
	Threshold uint64
}

// DropReason tells a drop hook which §3.1.2 rule discarded an entry.
type DropReason uint8

// The queue's drop rules.
const (
	// DropThreshold: the entry's FTD exceeded the drop threshold (or was
	// corrupt, which the queue treats as fully covered).
	DropThreshold DropReason = iota + 1
	// DropFull: the queue overflowed and the entry sorted last.
	DropFull
)

// Queue is the paper's FTD-sorted bounded queue. The zero value is not
// usable; construct with NewQueue.
//
// Storage grows on demand: a new queue holds no entries and no index, and
// the entry slice grows with the queue's depth, never past capacity+1 (the
// depth an Insert reaches just before its overflow eviction). Real queues
// sit far below K, and a large scenario builds one per node.
type Queue struct {
	entries   []Entry // ascending FTD, stable by insertion order
	capacity  int
	threshold float64
	drops     DropCounts
	seq       uint64
	version   uint64 // bumped on every content mutation
	dropHook  func(e Entry, reason DropReason)

	// index maps each queued message to its current FTD, turning the ID
	// lookups on every protocol path (Contains, FTDOf, Insert dedup,
	// Remove, UpdateFTD) from linear scans into a map probe plus a binary
	// search over the sorted entries. Storing the FTD rather than the
	// position keeps maintenance O(1): positions shift on every insert and
	// remove, but an entry's FTD only changes when the caller updates it.
	// Nil until the first insert.
	index map[packet.MessageID]float64
}

// NewQueue returns a queue holding at most capacity entries, dropping any
// entry whose FTD exceeds threshold (set threshold >= 1 to disable
// threshold drops).
func NewQueue(capacity int, threshold float64) (*Queue, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("buffer: capacity %d must be positive", capacity)
	}
	if threshold < 0 || math.IsNaN(threshold) {
		return nil, fmt.Errorf("buffer: threshold %v must be >= 0", threshold)
	}
	return &Queue{capacity: capacity, threshold: threshold}, nil
}

// growOne extends s by one slot, reallocating when it is full: the
// capacity doubles (from a floor of minGrow) but never exceeds limit, the
// most entries the owner ever holds at once, unless one more slot needs
// it. The new slot's contents are unspecified; the caller overwrites it.
func growOne(s []Entry, limit int) []Entry {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	const minGrow = 4
	n := min(max(2*cap(s), minGrow), limit)
	n = max(n, len(s)+1)
	grown := make([]Entry, len(s)+1, n)
	copy(grown, s)
	return grown
}

// restoreEntries rebuilds an entry slice from snapshot form into s's
// storage, reallocating at exactly the snapshot's length when s is too
// small.
func restoreEntries(s []Entry, st []EntryState) []Entry {
	if cap(s) < len(st) {
		s = make([]Entry, 0, len(st))
	}
	s = s[:0]
	for _, e := range st {
		s = append(s, Entry{
			ID: e.ID, Origin: e.Origin, CreatedAt: e.CreatedAt,
			PayloadBits: e.PayloadBits, FTD: e.FTD, Hops: e.Hops, seq: e.Seq,
		})
	}
	return s
}

// Len returns the number of stored entries.
func (q *Queue) Len() int { return len(q.entries) }

// Cap returns the queue capacity K.
func (q *Queue) Cap() int { return q.capacity }

// Threshold returns the FTD drop threshold.
func (q *Queue) Threshold() float64 { return q.threshold }

// Drops returns the drop counters.
func (q *Queue) Drops() DropCounts { return q.drops }

// Version returns a counter bumped on every content mutation (insert,
// remove, FTD update, wipe). Observers (internal/invariants) use it to
// re-validate the queue ordering only when the contents actually changed.
func (q *Queue) Version() uint64 { return q.version }

// SetDropHook installs a callback observing every entry discarded by a
// §3.1.2 drop rule (threshold or overflow), with the entry's FTD at drop
// time. Wipe is not reported — crash losses are the caller's to account.
// A nil hook disables observation.
func (q *Queue) SetDropHook(fn func(e Entry, reason DropReason)) { q.dropHook = fn }

// dropped counts and reports one discarded entry.
func (q *Queue) dropped(e Entry, reason DropReason) {
	switch reason {
	case DropThreshold:
		q.drops.Threshold++
	case DropFull:
		q.drops.Full++
	}
	if q.dropHook != nil {
		q.dropHook(e, reason)
	}
}

// Head returns the most important entry (smallest FTD) without removing it.
// ok is false when the queue is empty.
func (q *Queue) Head() (e Entry, ok bool) {
	if len(q.entries) == 0 {
		return Entry{}, false
	}
	return q.entries[0], true
}

// Entries returns a copy of the queue contents in priority order.
func (q *Queue) Entries() []Entry {
	out := make([]Entry, len(q.entries))
	copy(out, q.entries)
	return out
}

// Contains reports whether a copy of message id is queued.
func (q *Queue) Contains(id packet.MessageID) bool {
	return q.indexOf(id) >= 0
}

// FTDOf returns the FTD of the queued copy of id, with ok=false if absent.
func (q *Queue) FTDOf(id packet.MessageID) (ftdValue float64, ok bool) {
	i := q.indexOf(id)
	if i < 0 {
		return 0, false
	}
	return q.entries[i].FTD, true
}

// Insert adds a message copy per §3.1.2. If a copy of the same message is
// already queued, the smaller FTD wins (the more important view of the
// message). Returns whether the entry is in the queue afterwards.
//
// Rules applied in order: threshold drop; duplicate merge; positional
// insert; overflow drop of the sorted tail (which may be the new entry
// itself).
func (q *Queue) Insert(e Entry) bool {
	if e.FTD < 0 || e.FTD > 1 || math.IsNaN(e.FTD) {
		// Treat corrupt FTD as most-covered: drop.
		q.dropped(e, DropThreshold)
		return false
	}
	if e.FTD > q.threshold {
		q.dropped(e, DropThreshold)
		return false
	}
	if i := q.indexOf(e.ID); i >= 0 {
		if e.FTD < q.entries[i].FTD {
			q.entries[i].FTD = e.FTD
			q.index[e.ID] = e.FTD
			q.resort(i)
			q.version++
		}
		return true
	}
	e.seq = q.seq
	q.seq++
	q.version++
	pos := q.insertPos(e)
	q.entries = growOne(q.entries, q.capacity+1)
	copy(q.entries[pos+1:], q.entries[pos:])
	q.entries[pos] = e
	if q.index == nil {
		q.index = make(map[packet.MessageID]float64)
	}
	q.index[e.ID] = e.FTD
	if len(q.entries) > q.capacity {
		evicted := q.entries[len(q.entries)-1]
		q.entries = q.entries[:len(q.entries)-1]
		delete(q.index, evicted.ID)
		q.dropped(evicted, DropFull)
		return evicted.ID != e.ID
	}
	return true
}

// Remove deletes the copy of message id, reporting whether it was present.
// Used when a message is handed off under single-copy schemes or confirmed
// delivered to a sink.
func (q *Queue) Remove(id packet.MessageID) bool {
	i := q.indexOf(id)
	if i < 0 {
		return false
	}
	q.entries = append(q.entries[:i], q.entries[i+1:]...)
	delete(q.index, id)
	q.version++
	return true
}

// UpdateFTD sets the FTD of message id (after an Eq. 3 recomputation) and
// re-applies the drop threshold. It reports whether the message remains
// queued.
func (q *Queue) UpdateFTD(id packet.MessageID, ftdValue float64) bool {
	i := q.indexOf(id)
	if i < 0 {
		return false
	}
	q.version++
	if ftdValue > q.threshold || ftdValue < 0 || math.IsNaN(ftdValue) {
		gone := q.entries[i]
		gone.FTD = ftdValue // report the FTD that triggered the drop
		q.entries = append(q.entries[:i], q.entries[i+1:]...)
		delete(q.index, id)
		q.dropped(gone, DropThreshold)
		return false
	}
	q.entries[i].FTD = ftdValue
	q.index[id] = ftdValue
	q.resort(i)
	return true
}

// Wipe empties the queue and returns the IDs of the discarded entries —
// what a node crash destroys. Wiped entries are not counted as drops: they
// did not leave by a §3.1.2 queue rule.
func (q *Queue) Wipe() []packet.MessageID {
	if len(q.entries) == 0 {
		return nil
	}
	ids := make([]packet.MessageID, len(q.entries))
	for i := range q.entries {
		ids[i] = q.entries[i].ID
	}
	q.entries = q.entries[:0]
	clear(q.index)
	q.version++
	return ids
}

// EntryState is Entry with the insertion-order stamp exposed, so a snapshot
// can reproduce FTD tie-breaking exactly.
type EntryState struct {
	ID          packet.MessageID
	Origin      packet.NodeID
	CreatedAt   float64
	PayloadBits int
	FTD         float64
	Hops        int
	Seq         uint64
}

// QueueState is a Queue's snapshot: contents in priority order plus the
// counters that influence future behavior. Capacity, threshold, and hooks
// are construction-time configuration and are rebuilt, not snapshotted.
type QueueState struct {
	Entries []EntryState
	Seq     uint64
	Version uint64
	Drops   DropCounts
}

// ExportState captures the queue for a snapshot.
func (q *Queue) ExportState() QueueState {
	st := QueueState{Seq: q.seq, Version: q.version, Drops: q.drops}
	for _, e := range q.entries {
		st.Entries = append(st.Entries, EntryState{
			ID: e.ID, Origin: e.Origin, CreatedAt: e.CreatedAt,
			PayloadBits: e.PayloadBits, FTD: e.FTD, Hops: e.Hops, Seq: e.seq,
		})
	}
	return st
}

// RestoreState overlays a snapshot onto a freshly built queue with the same
// capacity and threshold, rebuilding the ID index.
func (q *Queue) RestoreState(st QueueState) {
	q.entries = restoreEntries(q.entries, st.Entries)
	clear(q.index)
	if q.index == nil && len(q.entries) > 0 {
		q.index = make(map[packet.MessageID]float64, len(q.entries))
	}
	for _, e := range q.entries {
		q.index[e.ID] = e.FTD
	}
	q.seq = st.Seq
	q.version = st.Version
	q.drops = st.Drops
}

// AvailableFor returns B(F) of §3.2.2: the number of buffer slots that are
// either empty or occupied by messages with FTD strictly greater than f —
// the space the queue can offer an incoming message with FTD f.
func (q *Queue) AvailableFor(f float64) int {
	avail := q.capacity - len(q.entries)
	for i := len(q.entries) - 1; i >= 0; i-- {
		if q.entries[i].FTD > f {
			avail++
		} else {
			break // sorted ascending: no earlier entry can exceed f
		}
	}
	return avail
}

// CountBelow returns K_F of Eq. 5: the number of queued messages with FTD
// strictly smaller than f.
func (q *Queue) CountBelow(f float64) int {
	n := 0
	for _, e := range q.entries {
		if e.FTD < f {
			n++
		} else {
			break
		}
	}
	return n
}

// Occupancy returns Len/Cap in [0,1].
func (q *Queue) Occupancy() float64 {
	return float64(len(q.entries)) / float64(q.capacity)
}

// indexOf locates the queued copy of id: a map probe for its FTD, a
// binary search to the start of that FTD's run, then a walk over the run
// (usually length 1) to match the ID. Returns -1 when absent.
func (q *Queue) indexOf(id packet.MessageID) int {
	f, ok := q.index[id]
	if !ok {
		return -1
	}
	lo, hi := 0, len(q.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if q.entries[mid].FTD < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(q.entries) && q.entries[i].FTD == f; i++ {
		if q.entries[i].ID == id {
			return i
		}
	}
	panic("buffer: index out of sync with entries")
}

// insertPos returns the sorted position for e: after all entries with
// smaller-or-equal FTD (stable for ties).
func (q *Queue) insertPos(e Entry) int {
	return q.insertPosIn(e.FTD, 0, len(q.entries))
}

// insertPosIn returns the first index in [lo, hi) whose FTD strictly
// exceeds f, or hi when none does — insertPos restricted to a window.
func (q *Queue) insertPosIn(f float64, lo, hi int) int {
	for lo < hi {
		mid := (lo + hi) / 2
		if q.entries[mid].FTD <= f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// resort restores sorted order after the FTD at index i changed, with one
// binary search over the affected side and one copy across the gap —
// where a delete-then-reinsert would shift the whole tail twice. The
// destination replicates insertPos on the array without entry i exactly,
// ties included: an entry matching its new neighbours' FTD lands after
// the run, as a fresh insert would.
func (q *Queue) resort(i int) {
	e := q.entries[i]
	switch {
	case i+1 < len(q.entries) && q.entries[i+1].FTD <= e.FTD:
		// Move right: e belongs after the run of entries <= its new FTD.
		pos := q.insertPosIn(e.FTD, i+1, len(q.entries))
		copy(q.entries[i:pos-1], q.entries[i+1:pos])
		q.entries[pos-1] = e
	case i > 0 && q.entries[i-1].FTD > e.FTD:
		// Move left: e belongs before the run of entries > its new FTD.
		pos := q.insertPosIn(e.FTD, 0, i)
		copy(q.entries[pos+1:i+1], q.entries[pos:i])
		q.entries[pos] = e
	}
}
