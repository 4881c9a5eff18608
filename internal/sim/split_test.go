package sim

import (
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"
)

// splitModel is a reference queue for TestPropertySplitQueueMatchesReference:
// a flat list of pending events whose next firing is found by a linear scan
// for the least (time, seq), with sequence numbers allocated the way the
// kernel documents them.
type splitModel struct {
	pending []modelEvent
	seq     uint64
	isoSeq  uint64
}

type modelEvent struct {
	id     int
	at     Time
	seq    uint64
	handle *Event // nil for PostArg events
}

func (m *splitModel) add(id int, at Time, seq uint64, h *Event) {
	m.pending = append(m.pending, modelEvent{id: id, at: at, seq: seq, handle: h})
}

// min returns the index of the event that must fire next, or -1.
func (m *splitModel) min() int {
	best := -1
	for i, e := range m.pending {
		if best < 0 || e.at < m.pending[best].at ||
			(e.at == m.pending[best].at && e.seq < m.pending[best].seq) {
			best = i
		}
	}
	return best
}

func (m *splitModel) drop(i int) {
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
}

// find returns the model index of the pending event held by handle h.
func (m *splitModel) find(h *Event) int {
	for i, e := range m.pending {
		if e.handle == h {
			return i
		}
	}
	return -1
}

// TestPropertySplitQueueMatchesReference drives the two-heap queue with
// random operation sequences and checks every firing against a reference
// sort by (time, seq). Delays straddle nearWindow — zero, exactly the
// window, one ulp either side, milliseconds, seconds — and times are often
// copied from pending events, so near-heap and far-heap events tie exactly;
// handles are rescheduled across the window in both directions, and the
// queue is periodically dropped with ResetForRestore and rebuilt with
// InjectAt. After every operation the kernel's Pending counts, handle
// Pending flags and NextEventTime must agree with the model.
func TestPropertySplitQueueMatchesReference(t *testing.T) {
	for trial := uint64(0); trial < 200; trial++ {
		runSplitTrial(t, trial)
	}
}

func runSplitTrial(t *testing.T, trial uint64) {
	rng := rand.New(rand.NewPCG(trial, 23))
	s := NewScheduler()
	m := &splitModel{isoSeq: isoSeqBase}
	var fired []int
	nextID := 0
	cb := func(id int) func() { return func() { fired = append(fired, id) } }
	cbArg := func(arg any) { fired = append(fired, arg.(int)) }

	delay := func() Duration {
		switch rng.IntN(8) {
		case 0:
			return 0
		case 1:
			return nearWindow
		case 2:
			return math.Nextafter(nearWindow, 0)
		case 3:
			return math.Nextafter(nearWindow, 1)
		case 4, 5:
			return rng.Float64() * 2 * nearWindow
		default:
			return 0.5 + rng.Float64()*4
		}
	}
	// at picks an absolute time: usually now plus a delay, sometimes the
	// exact time of a pending event so the two heaps hold ties.
	at := func() Time {
		if len(m.pending) > 0 && rng.IntN(3) == 0 {
			return m.pending[rng.IntN(len(m.pending))].at
		}
		return s.Now() + delay()
	}
	handleIdx := func() int {
		var hs []int
		for i, e := range m.pending {
			if e.handle != nil {
				hs = append(hs, i)
			}
		}
		if len(hs) == 0 {
			return -1
		}
		return hs[rng.IntN(len(hs))]
	}
	var stale []*Event // handles that fired, were cancelled or were dropped

	fireCheck := func(op string) {
		for _, id := range fired {
			i := m.min()
			if i < 0 {
				t.Fatalf("trial %d %s: fired event %d from an empty model", trial, op, id)
			}
			if want := m.pending[i]; want.id != id {
				t.Fatalf("trial %d %s: fired event %d, reference order wants %d (t=%v seq=%d)",
					trial, op, id, want.id, want.at, want.seq)
			}
			if h := m.pending[i].handle; h != nil {
				stale = append(stale, h)
			}
			m.drop(i)
		}
		fired = fired[:0]
	}
	agree := func(op string) {
		if got := s.Progress().Pending; got != len(m.pending) {
			t.Fatalf("trial %d %s: Progress().Pending = %d, model %d", trial, op, got, len(m.pending))
		}
		next, ok := s.NextEventTime()
		if i := m.min(); i < 0 {
			if ok {
				t.Fatalf("trial %d %s: NextEventTime = %v on an empty model", trial, op, next)
			}
		} else if !ok || next != m.pending[i].at {
			t.Fatalf("trial %d %s: NextEventTime = %v, %v; model %v", trial, op, next, ok, m.pending[i].at)
		}
		for _, e := range m.pending {
			if e.handle != nil && !e.handle.Pending() {
				t.Fatalf("trial %d %s: pending handle %d reports !Pending", trial, op, e.id)
			}
		}
		for _, h := range stale {
			if h.Pending() && m.find(h) < 0 {
				t.Fatalf("trial %d %s: stale handle reports Pending", trial, op)
			}
		}
	}

	for step := 0; step < 400; step++ {
		id := nextID
		nextID++
		var op string
		switch r := rng.IntN(20); {
		case r < 2:
			op = "At"
			when := at()
			e, err := s.At(when, cb(id))
			if err != nil {
				t.Fatal(err)
			}
			m.add(id, when, m.seq, e)
			m.seq++
		case r < 4:
			op = "After"
			d := delay()
			e := s.After(d, cb(id))
			m.add(id, s.Now()+d, m.seq, e)
			m.seq++
		case r < 5:
			op = "AfterLabeled"
			d := delay()
			e := s.AfterLabeled(d, "l", cb(id))
			m.add(id, s.Now()+d, m.seq, e)
			m.seq++
		case r < 8:
			op = "PostArg"
			d := delay()
			s.PostArg(d, "p", cbArg, id)
			m.add(id, s.Now()+d, m.seq, nil)
			m.seq++
		case r < 9:
			op = "AtIsolated"
			when := at()
			e, err := s.AtIsolated(when, "iso", cb(id))
			if err != nil {
				t.Fatal(err)
			}
			m.add(id, when, m.isoSeq, e)
			m.isoSeq++
		case r < 10:
			op = "Cancel"
			if i := handleIdx(); i >= 0 {
				h := m.pending[i].handle
				s.Cancel(h)
				stale = append(stale, h)
				m.drop(i)
			}
		case r < 12:
			op = "Reschedule"
			if i := handleIdx(); i >= 0 {
				h := m.pending[i].handle
				m.drop(i)
				d := delay()
				if e := s.Reschedule(h, d, "r", cb(id)); e != h {
					t.Fatalf("trial %d: Reschedule returned a new event", trial)
				}
				m.add(id, s.Now()+d, m.seq, h)
				m.seq++
			}
		case r < 13:
			op = "RescheduleAt"
			if i := handleIdx(); i >= 0 {
				h := m.pending[i].handle
				m.drop(i)
				when := at()
				if _, err := s.RescheduleAt(h, when, "ra", cb(id)); err != nil {
					t.Fatal(err)
				}
				m.add(id, when, m.seq, h)
				m.seq++
			}
		case r < 14:
			op = "ResetForRestore+InjectAt"
			refs := append([]modelEvent(nil), m.pending...)
			for _, e := range refs {
				if e.handle != nil {
					stale = append(stale, e.handle)
				}
			}
			s.ResetForRestore(s.ExportState())
			if s.Progress().Pending != 0 {
				t.Fatalf("trial %d: ResetForRestore left %d events", trial, s.Progress().Pending)
			}
			m.pending = m.pending[:0]
			for _, e := range refs {
				h, err := s.InjectAt(&EventRef{At: e.at, Seq: e.seq, Label: "inj"}, cb(e.id))
				if err != nil {
					t.Fatal(err)
				}
				m.add(e.id, e.at, e.seq, h)
			}
		case r < 17:
			op = "Step"
			if fired := s.Step(); fired != (len(m.pending) > 0) {
				t.Fatalf("trial %d: Step = %v with %d pending", trial, fired, len(m.pending))
			}
		default:
			op = "Run"
			if err := s.Run(s.Now() + delay()); err != nil {
				t.Fatal(err)
			}
		}
		if s.Scheduled() != m.seq {
			t.Fatalf("trial %d %s: Scheduled = %d, model %d", trial, op, s.Scheduled(), m.seq)
		}
		fireCheck(op)
		agree(op)
	}
	if err := s.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	fireCheck("drain")
	agree("drain")
}

// TestEventStaysInItsSizeClass pins the Event struct to the 80-byte
// allocation size class every handle event is allocated in.
func TestEventStaysInItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 80 {
		t.Fatalf("sizeof(Event) = %d, want <= 80", got)
	}
}
