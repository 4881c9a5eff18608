package buffer

import (
	"reflect"
	"testing"

	"dftmsn/internal/packet"
)

// Queue and FIFO storage is made on demand: these tests drive every
// operation on a queue that has never stored an entry (nil entries, nil
// index) and pin the storage bounds once one has.

func TestNeverInsertedQueue(t *testing.T) {
	q := newQ(t, 8, 0.9)
	if got := q.ExportState(); !reflect.DeepEqual(got, QueueState{}) {
		t.Errorf("ExportState = %+v, want zero state", got)
	}
	if ids := q.Wipe(); ids != nil {
		t.Errorf("Wipe = %v, want nil", ids)
	}
	if q.Remove(1) || q.Contains(1) {
		t.Error("empty queue claims message 1")
	}
	if q.UpdateFTD(1, 0.5) {
		t.Error("UpdateFTD on an empty queue reported the message queued")
	}
	if _, ok := q.FTDOf(1); ok {
		t.Error("FTDOf on an empty queue reported ok")
	}
	if got := q.AvailableFor(0.5); got != 8 {
		t.Errorf("AvailableFor = %d, want 8", got)
	}
	if got := q.CountBelow(0.5); got != 0 {
		t.Errorf("CountBelow = %d, want 0", got)
	}
	if got := q.Occupancy(); got != 0 {
		t.Errorf("Occupancy = %v, want 0", got)
	}
	if q.Version() != 0 || q.Drops() != (DropCounts{}) {
		t.Errorf("read-only calls mutated the queue: version %d, drops %+v", q.Version(), q.Drops())
	}
	// A threshold drop on a never-inserted queue stores nothing.
	if q.Insert(entry(1, 0.95)) || q.Len() != 0 || q.Drops().Threshold != 1 {
		t.Errorf("threshold drop: len %d, drops %+v", q.Len(), q.Drops())
	}
}

func TestNeverInsertedQueueRestore(t *testing.T) {
	q := newQ(t, 8, 0.9)
	q.RestoreState(QueueState{})
	if q.Len() != 0 {
		t.Fatalf("empty restore left %d entries", q.Len())
	}
	if !q.Insert(entry(7, 0.2)) || !q.Contains(7) {
		t.Fatal("insert after an empty restore failed")
	}

	// A non-empty restore into a never-inserted queue must build the index
	// (a write into a nil map would panic).
	src := newQ(t, 8, 0.9)
	for i, f := range []float64{0.4, 0.1, 0.4, 0.7} {
		src.Insert(entry(i+1, f))
	}
	src.Remove(1)
	st := src.ExportState()
	dst := newQ(t, 8, 0.9)
	dst.RestoreState(st)
	if !reflect.DeepEqual(dst.ExportState(), st) {
		t.Fatalf("restored state = %+v, want %+v", dst.ExportState(), st)
	}
	if cap(dst.entries) != len(st.Entries) {
		t.Errorf("restore made %d slots for %d entries", cap(dst.entries), len(st.Entries))
	}
	for _, e := range st.Entries {
		if f, ok := dst.FTDOf(e.ID); !ok || f != e.FTD {
			t.Errorf("FTDOf(%d) = %v, %v after restore; want %v", e.ID, f, ok, e.FTD)
		}
	}
	// The restored tie order and seq counter carry on: a new 0.4 entry
	// sorts after both restored 0.4 entries.
	dst.Insert(entry(9, 0.4))
	src.Insert(entry(9, 0.4))
	if !reflect.DeepEqual(dst.Entries(), src.Entries()) {
		t.Errorf("post-restore insert diverged:\n got %+v\nwant %+v", dst.Entries(), src.Entries())
	}
}

func TestQueueStorageBoundedByCapacity(t *testing.T) {
	const k = 37
	q := newQ(t, k, 1)
	for i := 0; i < 5*k; i++ {
		q.Insert(entry(i, float64((i*53)%100)/100))
		if c := cap(q.entries); c > k+1 {
			t.Fatalf("after %d inserts cap(entries) = %d, want <= %d", i+1, c, k+1)
		}
	}
	if q.Len() != k || q.Drops().Full != 4*k {
		t.Errorf("len %d, full drops %d; want %d, %d", q.Len(), q.Drops().Full, k, 4*k)
	}
	// Removing and wiping keep the storage for reuse.
	q.Remove(q.entries[0].ID)
	q.Wipe()
	if c := cap(q.entries); c == 0 || c > k+1 {
		t.Errorf("cap after wipe = %d", c)
	}
}

// Package-level sinks keep the constructors' results on the heap, as in
// real use; a discarded result may be stack-allocated after inlining.
var (
	sinkQueue *Queue
	sinkFIFO  *FIFO
)

func TestNewQueueAllocatesOnlyTheStruct(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		sinkQueue, _ = NewQueue(200, 0.9)
	})
	if allocs != 1 {
		t.Errorf("NewQueue made %v allocations, want 1", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		sinkFIFO, _ = NewFIFO(200)
	})
	if allocs != 1 {
		t.Errorf("NewFIFO made %v allocations, want 1", allocs)
	}
}

func newF(t *testing.T, capacity int) *FIFO {
	t.Helper()
	f, err := NewFIFO(capacity)
	if err != nil {
		t.Fatalf("NewFIFO: %v", err)
	}
	return f
}

func TestNeverInsertedFIFO(t *testing.T) {
	f := newF(t, 4)
	if got := f.ExportState(); !reflect.DeepEqual(got, FIFOState{}) {
		t.Errorf("ExportState = %+v, want zero state", got)
	}
	if ids := f.Wipe(); ids != nil {
		t.Errorf("Wipe = %v, want nil", ids)
	}
	if f.Remove(1) || f.Contains(1) {
		t.Error("empty FIFO claims message 1")
	}
	if got := f.Available(); got != 4 {
		t.Errorf("Available = %d, want 4", got)
	}

	f.RestoreState(FIFOState{})
	if f.Len() != 0 || !f.Insert(Entry{ID: 3}) || !f.Contains(3) {
		t.Fatal("insert after an empty restore failed")
	}

	st := FIFOState{
		Entries: []EntryState{{ID: 5, FTD: 0.3, Seq: 2}, {ID: 6, Hops: 1}},
		Drops:   DropCounts{Full: 3},
	}
	g := newF(t, 4)
	g.RestoreState(st)
	if !reflect.DeepEqual(g.ExportState(), st) {
		t.Errorf("restored state = %+v, want %+v", g.ExportState(), st)
	}
}

func TestFIFOStorageBoundedByCapacity(t *testing.T) {
	const k = 23
	f := newF(t, k)
	for i := 0; i < 2*k; i++ {
		f.Insert(Entry{ID: packet.MessageID(i)})
		if c := cap(f.entries); c > k {
			t.Fatalf("after %d inserts cap(entries) = %d, want <= %d", i+1, c, k)
		}
	}
	if f.Len() != k || f.Drops().Full != k {
		t.Errorf("len %d, full drops %d; want %d, %d", f.Len(), f.Drops().Full, k, k)
	}
	for i := 0; i < k; i++ {
		if got := f.Entries()[i].ID; got != packet.MessageID(i) {
			t.Fatalf("entry %d = %d: arrival order lost across growth", i, got)
		}
	}
}
