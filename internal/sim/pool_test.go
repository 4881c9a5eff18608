package sim

import (
	"math/rand/v2"
	"testing"
)

// TestFreeListNeverResurrectsHandleEvents locks the pooling contract: handle
// events (At/After/AfterLabeled) are never recycled, so a retained handle
// stays permanently !Pending after it fires or is cancelled — no matter how
// hard the PostArg free list churns underneath. A violation would show
// up as a stale handle flipping back to Pending (its Event object reused for
// a later pooled event).
func TestFreeListNeverResurrectsHandleEvents(t *testing.T) {
	s := NewScheduler()

	type tracked struct {
		ev        *Event
		at        Time
		cancelled bool
		fired     bool
	}
	handles := make([]*tracked, 0, 200)
	for i := 0; i < 200; i++ {
		tr := &tracked{at: float64(i%13) * 0.37}
		tr.ev = s.AfterLabeled(tr.at, "handle", func() { tr.fired = true })
		handles = append(handles, tr)
	}
	for i := 0; i < len(handles); i += 3 {
		s.Cancel(handles[i].ev)
		handles[i].cancelled = true
	}

	// Pooled churn: a self-rescheduling chain plus a burst of extra posts per
	// step, so released events are constantly re-issued while the handles
	// above fire and their objects would be ripe for (incorrect) reuse.
	checkStale := func() {
		for i, tr := range handles {
			done := tr.cancelled || tr.fired
			if done && tr.ev.Pending() {
				t.Fatalf("handle %d resurrected at t=%.3f (cancelled=%v fired=%v)",
					i, s.Now(), tr.cancelled, tr.fired)
			}
			if done && tr.ev.At() != tr.at {
				t.Fatalf("handle %d timestamp rewritten: At()=%v want %v", i, tr.ev.At(), tr.at)
			}
		}
	}
	var churn func()
	churn = func() {
		checkStale()
		for j := 0; j < 4; j++ {
			post(s, 0.01*float64(j), "burst", func() {})
		}
		s.PostArg(0.02, "burst-arg", func(any) {}, nil)
		if s.Now() < 8 {
			post(s, 0.05, "churn", churn)
		}
	}
	post(s, 0, "churn", churn)

	if err := s.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	checkStale()
	for i, tr := range handles {
		if tr.cancelled && tr.fired {
			t.Errorf("handle %d fired after cancel", i)
		}
		if !tr.cancelled && !tr.fired {
			t.Errorf("handle %d never fired", i)
		}
	}
}

// TestRescheduleMatchesCancelPlusAfter locks Reschedule's contract: it is
// Cancel followed by AfterLabeled — one sequence number consumed, same
// firing order — whether the handle is pending, fired, or cancelled.
func TestRescheduleMatchesCancelPlusAfter(t *testing.T) {
	run := func(useReschedule bool) []string {
		s := NewScheduler()
		var order []string
		note := func(tag string) func() { return func() { order = append(order, tag) } }

		ev := s.AfterLabeled(1, "a", note("a-first"))
		s.AfterLabeled(2, "b", note("b"))
		// Re-aim the pending handle to t=2: scheduled after "b", so it must
		// fire after "b" via the sequence tie-break.
		if useReschedule {
			ev = s.Reschedule(ev, 2, "a", note("a-moved"))
		} else {
			s.Cancel(ev)
			ev = s.AfterLabeled(2, "a", note("a-moved"))
		}
		s.AfterLabeled(2, "c", note("c")) // must still sort after a-moved
		if err := s.Run(Infinity); err != nil {
			t.Fatal(err)
		}

		// Reuse after firing, then after cancelling.
		ev = s.Reschedule(ev, 1, "a", note("a-again"))
		s.Cancel(ev)
		ev = s.Reschedule(ev, 1, "a", note("a-final"))
		if !ev.Pending() {
			t.Fatal("rescheduled handle not pending")
		}
		if err := s.Run(Infinity); err != nil {
			t.Fatal(err)
		}
		return order
	}

	got := run(true)
	want := run(false)
	if len(got) != len(want) {
		t.Fatalf("orders differ: reschedule=%v cancel+after=%v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("orders diverge at %d: reschedule=%v cancel+after=%v", i, got, want)
		}
	}
}

// TestPropertyPoolChurnKeepsOrder hammers the hand-rolled heap with a random
// interleaving of handle scheduling, cancellation, rescheduling, and pooled
// posts, asserting events always fire in nondecreasing (time, seq) order.
func TestPropertyPoolChurnKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	for trial := 0; trial < 50; trial++ {
		s := NewScheduler()
		lastAt := -1.0
		check := func() {
			if s.Now() < lastAt {
				t.Fatalf("trial %d: clock went backwards %v -> %v", trial, lastAt, s.Now())
			}
			lastAt = s.Now()
		}
		var live []*Event
		var drive func()
		drive = func() {
			check()
			switch rng.IntN(5) {
			case 0:
				live = append(live, s.AfterLabeled(rng.Float64()*2, "h", check))
			case 1:
				if len(live) > 0 {
					s.Cancel(live[rng.IntN(len(live))])
				}
			case 2:
				if len(live) > 0 {
					i := rng.IntN(len(live))
					live[i] = s.Reschedule(live[i], rng.Float64()*2, "r", check)
				}
			default:
				post(s, rng.Float64(), "p", check)
			}
			if s.Now() < 5 {
				post(s, rng.Float64()*0.2, "drive", drive)
			}
		}
		post(s, 0, "drive", drive)
		if err := s.Run(Infinity); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPostSteadyStateAllocates nothing: after warm-up the free list feeds
// every PostArg, so fire-and-forget scheduling is allocation-free.
func TestPostSteadyStateAllocationFree(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	fnArg := func(any) {}
	// Warm the pool.
	for i := 0; i < 10; i++ {
		post(s, 0, "warm", fn)
	}
	for s.Step() {
	}
	avg := testing.AllocsPerRun(100, func() {
		post(s, 0, "steady", fn)
		s.PostArg(0, "steady", fnArg, nil)
		for s.Step() {
		}
	})
	if avg != 0 {
		t.Errorf("steady-state PostArg allocates %.1f per cycle, want 0", avg)
	}
}

// post schedules a plain callback on the pooled PostArg path. A func value
// stored in an any does not allocate, so post stays allocation-free.
func post(s *Scheduler, d Duration, label string, fn func()) {
	s.PostArg(d, label, callThunk, fn)
}

func callThunk(arg any) { arg.(func())() }
