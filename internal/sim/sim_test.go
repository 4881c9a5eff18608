package sim

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []Time
	for _, d := range []Duration{5, 1, 3, 2, 4} {
		d := d
		s.After(d, func() { got = append(got, s.Now()) })
	}
	if err := s.Run(Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSchedulerTieBreakBySequence(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(7, func() { order = append(order, i) })
	}
	if err := s.Run(Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestSchedulerAtRejectsPast(t *testing.T) {
	s := NewScheduler()
	s.After(10, func() {})
	if err := s.Run(Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := s.At(5, func() {}); err == nil {
		t.Fatal("At in the past succeeded, want error")
	}
	if _, err := s.At(10, func() {}); err != nil {
		t.Fatalf("At(now) failed: %v", err)
	}
}

func TestSchedulerAtRejectsNilFunc(t *testing.T) {
	s := NewScheduler()
	if _, err := s.At(1, nil); err == nil {
		t.Fatal("At with nil func succeeded, want error")
	}
}

func TestSchedulerNegativeDelayClampsToNow(t *testing.T) {
	s := NewScheduler()
	s.After(3, func() {
		e := s.After(-1, func() {})
		if e.At() != 3 {
			t.Errorf("negative delay scheduled at %v, want now (3)", e.At())
		}
	})
	if err := s.Run(Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.After(1, func() { fired = true })
	if !e.Pending() {
		t.Fatal("event not pending after scheduling")
	}
	s.Cancel(e)
	if e.Pending() {
		t.Fatal("event still pending after cancel")
	}
	if err := s.Run(Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelIsIdempotentAndNilSafe(t *testing.T) {
	s := NewScheduler()
	e := s.After(1, func() {})
	s.Cancel(e)
	s.Cancel(e)
	s.Cancel(nil)
	if err := s.Run(Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCancelMiddleOfHeapKeepsOrder(t *testing.T) {
	s := NewScheduler()
	var got []Time
	record := func() { got = append(got, s.Now()) }
	s.After(1, record)
	e2 := s.After(2, record)
	s.After(3, record)
	s.After(4, record)
	s.Cancel(e2)
	if err := s.Run(Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunHorizonStopsClockAtHorizon(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.After(1, func() { fired++ })
	s.After(100, func() { fired++ })
	if err := s.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired %d events within horizon 10, want 1", fired)
	}
	if s.Now() != 10 {
		t.Fatalf("clock at %v after Run(10), want 10", s.Now())
	}
	// The late event must survive and fire on a later Run.
	if err := s.Run(200); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 2 {
		t.Fatalf("fired %d events after second run, want 2", fired)
	}
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	s := NewScheduler()
	var got []Time
	s.After(1, func() {
		s.After(1, func() { got = append(got, s.Now()) })
	})
	if err := s.Run(Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("nested event fired at %v, want [2]", got)
	}
}

func TestFiredCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.After(Duration(i), func() {})
	}
	if err := s.Run(Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5", s.Fired())
	}
	if p := s.Progress().Pending; p != 0 {
		t.Fatalf("Progress().Pending = %d, want 0", p)
	}
}

func TestAfterLabeled(t *testing.T) {
	s := NewScheduler()
	e := s.AfterLabeled(1, "wakeup", func() {})
	if e.Label() != "wakeup" {
		t.Fatalf("Label() = %q, want wakeup", e.Label())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the count of fired events equals the count scheduled.
func TestPropertyFiringOrderSorted(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, d := range delays {
			s.After(Duration(d)/16, func() { fired = append(fired, s.Now()) })
		}
		if err := s.Run(Infinity); err != nil {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random interleaving of schedule/cancel never corrupts the heap:
// every non-cancelled event fires exactly once, in order.
func TestPropertyCancelNeverCorruptsHeap(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 42))
		s := NewScheduler()
		events := make([]*Event, 0, int(n))
		firedCount := 0
		for i := 0; i < int(n); i++ {
			e := s.After(rng.Float64()*100, func() { firedCount++ })
			events = append(events, e)
		}
		cancelled := 0
		for _, e := range events {
			if rng.Float64() < 0.4 {
				if e.Pending() {
					s.Cancel(e)
					cancelled++
				}
			}
		}
		if err := s.Run(Infinity); err != nil {
			return false
		}
		return firedCount == int(n)-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	var labels []string
	s.SetEventHook(func(_ Time, _ uint64, label string) { labels = append(labels, label) })
	tk := NewTicker(s, 2, "tick", func(now Time) { ticks = append(ticks, now) })
	tk.Start()
	if err := s.Run(9); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(labels) != 4 {
		t.Fatalf("hook saw %d events, want 4", len(labels))
	}
	for _, l := range labels {
		if l != "tick" {
			t.Fatalf("tick events labelled %q, want \"tick\"", l)
		}
	}
	want := []Time{2, 4, 6, 8}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopAndRestart(t *testing.T) {
	s := NewScheduler()
	count := 0
	tk := NewTicker(s, 1, "", func(Time) { count++ })
	tk.Start()
	tk.Start() // double-start is a no-op
	s.After(3.5, func() { tk.Stop() })
	if err := s.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 3 {
		t.Fatalf("ticked %d times before stop, want 3", count)
	}
	tk.Start()
	if err := s.Run(12.8); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 5 {
		t.Fatalf("ticked %d times total after restart, want 5", count)
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tk *Ticker
	tk = NewTicker(s, 1, "", func(Time) {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	tk.Start()
	if err := s.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 2 {
		t.Fatalf("ticked %d times, want 2", count)
	}
}

// TestRescheduleAtReusesEvent covers the kernel primitive behind the MAC
// and coalesced-cycle timers: absolute-time rescheduling that errors on
// past times and reuses the handle.
func TestRescheduleAtReusesEvent(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	fn := func() { fired = append(fired, s.Now()) }
	ev, err := s.RescheduleAt(nil, 2, "x", fn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.At(1, func() {
		// Re-aim the pending event from inside the run.
		if _, err := s.RescheduleAt(ev, 3, "x", fn); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("fired at %v; want exactly once at t=3", fired)
	}
	if _, err := s.RescheduleAt(ev, s.Now()-1, "x", fn); err == nil {
		t.Fatal("RescheduleAt accepted a past time")
	}
}

// TestRescheduleOwnHandleFromCallback pins the self-re-arm pattern a
// periodic timer uses: a callback that Reschedules its own just-fired
// handle is reported to the event hook under the identity it fired with,
// and the handle fires again at the new time.
func TestRescheduleOwnHandleFromCallback(t *testing.T) {
	s := NewScheduler()
	type seen struct {
		at    Time
		seq   uint64
		label string
	}
	var hooked []seen
	s.SetEventHook(func(now Time, seq uint64, label string) {
		hooked = append(hooked, seen{now, seq, label})
	})
	var ev *Event
	n := 0
	var fn func()
	fn = func() {
		if n++; n < 3 {
			s.Reschedule(ev, 1, "tick", fn)
		}
	}
	ev = s.AfterLabeled(1, "first", fn)
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	want := []seen{{1, 0, "first"}, {2, 1, "tick"}, {3, 2, "tick"}}
	if !reflect.DeepEqual(hooked, want) {
		t.Fatalf("hook saw %v, want %v", hooked, want)
	}
}

// TestCountersAndNextEventTime covers the scheduled/fired/elided counters
// and the queue-peek checkpointing uses to find a quiescent instant.
func TestCountersAndNextEventTime(t *testing.T) {
	s := NewScheduler()
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("empty scheduler reported a next event")
	}
	if _, err := s.At(4, func() {}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.At(2, func() {}); err != nil {
		t.Fatal(err)
	}
	if next, ok := s.NextEventTime(); !ok || next != 2 {
		t.Fatalf("NextEventTime = %v, %v; want 2, true", next, ok)
	}
	s.CountElided(7)
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if s.Scheduled() != 2 || s.Fired() != 2 || s.Elided() != 7 {
		t.Fatalf("counters scheduled=%d fired=%d elided=%d; want 2, 2, 7",
			s.Scheduled(), s.Fired(), s.Elided())
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(1, func() {})
		s.Step()
	}
}

// BenchmarkSchedulerSleepHeavy prices the kernel in the shape the paper's
// sleep–wakeup schemes give it: 80 dozing nodes each hold one timer re-armed
// 1–3.5 s ahead, while one awake node's MAC churns events 2–6.5 ms ahead,
// so ~85% of pushes land near the clock (the proportions of a 40-sensor
// OPT service job). One op is one fired event.
func BenchmarkSchedulerSleepHeavy(b *testing.B) {
	s := NewScheduler()
	lcg := uint32(1)
	farDelay := func() Duration {
		lcg = lcg*1664525 + 1013904223
		return 1 + 2.5*float64(lcg>>8)/(1<<24)
	}
	for i := 0; i < 80; i++ {
		var ev *Event
		var rearm func()
		rearm = func() { ev = s.Reschedule(ev, farDelay(), "wake", rearm) }
		ev = s.AfterLabeled(farDelay(), "wake", rearm)
	}
	nearDelays := [...]Duration{0.005, 0.0065, 0.002, 0.006, 0.005, 0.0045}
	k := 0
	var churn func(any)
	churn = func(any) {
		k++
		s.PostArg(nearDelays[k%len(nearDelays)], "frame-end", churn, nil)
	}
	s.PostArg(0, "frame-end", churn, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func TestEventHookFiresAfterEachEvent(t *testing.T) {
	s := NewScheduler()
	type rec struct {
		now   Time
		seq   uint64
		label string
	}
	var hooks []rec
	s.SetEventHook(func(now Time, seq uint64, label string) {
		hooks = append(hooks, rec{now, seq, label})
	})
	var fired int
	s.AfterLabeled(1, "a", func() { fired++ })
	s.AfterLabeled(2, "b", func() { fired++ })
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if fired != 2 || len(hooks) != 2 {
		t.Fatalf("fired=%d hooks=%d, want 2 and 2", fired, len(hooks))
	}
	if hooks[0] != (rec{1, 0, "a"}) || hooks[1] != (rec{2, 1, "b"}) {
		t.Fatalf("hook records %+v", hooks)
	}
}

func TestEventPanicCarriesEventContext(t *testing.T) {
	s := NewScheduler()
	boom := errors.New("boom")
	s.AfterLabeled(3, "doomed", func() { panic(boom) })
	defer func() {
		r := recover()
		ep, ok := r.(*EventPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *EventPanic", r, r)
		}
		if ep.Time != 3 || ep.Label != "doomed" || ep.Value != error(boom) {
			t.Fatalf("EventPanic = %+v", ep)
		}
		if !strings.Contains(ep.Error(), "t=3.000000") || !strings.Contains(ep.Error(), "label=doomed") {
			t.Fatalf("Error() = %q", ep.Error())
		}
		if !errors.Is(ep, boom) {
			t.Error("Unwrap lost the original error")
		}
	}()
	_ = s.Run(10)
}

// TestEventHookPanicIsWrapped checks a panic raised by the hook itself —
// the invariant engine's panic mode — still gains event context.
func TestEventHookPanicIsWrapped(t *testing.T) {
	s := NewScheduler()
	s.SetEventHook(func(Time, uint64, string) { panic("hook says no") })
	s.AfterLabeled(1, "watched", func() {})
	defer func() {
		ep, ok := recover().(*EventPanic)
		if !ok || ep.Label != "watched" || ep.Value != any("hook says no") {
			t.Fatalf("recovered %+v", ep)
		}
	}()
	_ = s.Run(10)
}

// TestProbePanicIsNotWrapped checks a panic raised between events by the
// cancellation or progress probe surfaces from Run exactly as raised: it
// belongs to no event, so Run's deferred recover must leave it alone.
func TestProbePanicIsNotWrapped(t *testing.T) {
	for _, arm := range []string{"cancel", "progress"} {
		t.Run(arm, func(t *testing.T) {
			s := NewScheduler()
			for i := 0; i < 3*CancelStride; i++ {
				s.AfterLabeled(float64(i), "tick", func() {})
			}
			calls := 0
			probe := func() {
				if calls++; calls == 2 {
					panic("probe says no")
				}
			}
			if arm == "cancel" {
				s.SetCancel(func() bool { probe(); return false })
			} else {
				s.SetProbe(probe)
			}
			defer func() {
				if r := recover(); r != any("probe says no") {
					t.Fatalf("recovered %#v, want the probe's own value", r)
				}
				if s.Fired() != CancelStride {
					t.Fatalf("fired %d events before the probe panic, want %d", s.Fired(), CancelStride)
				}
			}()
			_ = s.Run(Infinity)
		})
	}
}

// TestStepPanicCarriesEventContext checks a panic inside a Step-driven
// loop is wrapped with the context of the event that raised it, not of an
// earlier or later one, and that the scheduler stays usable afterwards.
func TestStepPanicCarriesEventContext(t *testing.T) {
	s := NewScheduler()
	s.AfterLabeled(1, "fine", func() {})
	s.AfterLabeled(2, "doomed", func() { panic("boom") })
	s.AfterLabeled(3, "later", func() {})
	var ep *EventPanic
	func() {
		defer func() { ep, _ = recover().(*EventPanic) }()
		for s.Step() {
		}
	}()
	if ep == nil || ep.Time != 2 || ep.Seq != 1 || ep.Label != "doomed" || ep.Value != any("boom") {
		t.Fatalf("recovered %+v, want t=2 seq=1 label=doomed value=boom", ep)
	}
	// The loop resumes: the remaining event fires, and a probe panic
	// afterwards is no longer mistaken for the failed event's.
	if !s.Step() || s.Now() != 3 || s.Step() {
		t.Fatalf("after the panic: now=%v fired=%d", s.Now(), s.Fired())
	}
}
