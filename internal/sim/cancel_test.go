package sim

import (
	"errors"
	"testing"
)

// TestCancelStopsBetweenEvents pins the cooperative-cancellation contract:
// the probe is consulted on entry and then every CancelStride events, the
// run stops with ErrCancelled strictly between events, and the clock stays
// at the last fired event instead of advancing to the horizon.
func TestCancelStopsBetweenEvents(t *testing.T) {
	s := NewScheduler()
	fired := 0
	var schedule func()
	schedule = func() {
		fired++
		s.After(1, schedule)
	}
	s.After(1, schedule)

	probeCalls := 0
	s.SetCancel(func() bool {
		probeCalls++
		return probeCalls > 3 // cancel at the fourth probe call
	})
	err := s.Run(1e9)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run = %v, want ErrCancelled", err)
	}
	// Entry probe + one probe per CancelStride events: cancelling on the
	// fourth call means exactly 3*CancelStride events fired.
	if want := 3 * CancelStride; fired != want {
		t.Fatalf("fired %d events before cancellation, want %d", fired, want)
	}
	if got, want := s.Now(), Time(3*CancelStride); got != want {
		t.Fatalf("clock at %v after cancellation, want last event time %v", got, want)
	}
	if s.Fired() != uint64(fired) {
		t.Fatalf("Fired() = %d, want %d", s.Fired(), fired)
	}
}

// TestCancelImmediately checks that a probe that is already true stops the
// run before any event fires.
func TestCancelImmediately(t *testing.T) {
	s := NewScheduler()
	s.After(1, func() { t.Fatal("event fired despite immediate cancellation") })
	s.SetCancel(func() bool { return true })
	if err := s.Run(100); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run = %v, want ErrCancelled", err)
	}
	if s.Fired() != 0 {
		t.Fatalf("fired %d events, want 0", s.Fired())
	}
}

// TestCancelPrefixDeterminism runs the same event program twice — once to
// completion, once cancelled partway — and asserts the cancelled run's
// observation log is exactly a prefix of the full run's: cancellation at
// event granularity cannot perturb what the completed prefix computed.
func TestCancelPrefixDeterminism(t *testing.T) {
	program := func(s *Scheduler, log *[]Time) {
		var tick func()
		n := 0
		tick = func() {
			*log = append(*log, s.Now())
			n++
			if n < 1000 {
				s.After(0.5, tick)
			}
		}
		s.After(0.5, tick)
	}

	var full []Time
	sFull := NewScheduler()
	program(sFull, &full)
	if err := sFull.Run(Infinity); err != nil {
		t.Fatal(err)
	}

	var part []Time
	sPart := NewScheduler()
	program(sPart, &part)
	calls := 0
	sPart.SetCancel(func() bool { calls++; return calls > 2 })
	if err := sPart.Run(Infinity); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run = %v, want ErrCancelled", err)
	}

	if len(part) == 0 || len(part) >= len(full) {
		t.Fatalf("cancelled run logged %d events, full run %d; want a proper non-empty prefix", len(part), len(full))
	}
	for i, v := range part {
		if full[i] != v {
			t.Fatalf("log diverges at %d: cancelled %v, full %v", i, v, full[i])
		}
	}
}

// TestCancelledHonoursStride checks the Step-path probe used by
// checkpointing loops.
func TestCancelledHonoursStride(t *testing.T) {
	s := NewScheduler()
	calls := 0
	s.SetCancel(func() bool { calls++; return false })
	for i := 0; i < 2*CancelStride; i++ {
		if s.Cancelled() {
			t.Fatal("probe returning false must not cancel")
		}
	}
	if calls != 2 {
		t.Fatalf("probe called %d times over %d checks, want 2", calls, 2*CancelStride)
	}
	s.SetCancel(nil)
	if s.Cancelled() {
		t.Fatal("nil probe must never cancel")
	}
}

// TestProgressProbeSharesStride pins the progress-probe contract: the probe
// fires on the same CancelStride cadence as the cancellation probe, with or
// without one armed, and a probe-only scheduler still never cancels.
func TestProgressProbeSharesStride(t *testing.T) {
	s := NewScheduler()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 5*CancelStride {
			s.After(1, tick)
		}
	}
	s.After(1, tick)

	probes := 0
	var snap Progress
	s.SetProbe(func() { probes++; snap = s.Progress() })
	if err := s.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	// Entry probe + one per CancelStride fired events.
	if want := 5; probes != want {
		t.Fatalf("probe fired %d times over %d events, want %d", probes, n, want)
	}
	if snap.Fired == 0 || snap.Fired != uint64(4*CancelStride) {
		t.Fatalf("last snapshot fired = %d, want %d", snap.Fired, 4*CancelStride)
	}
	if snap.Now != Time(4*CancelStride) {
		t.Fatalf("last snapshot clock = %v, want %v", snap.Now, Time(4*CancelStride))
	}

	// The probe composes with a cancellation probe on one stride counter.
	s2 := NewScheduler()
	var tick2 func()
	s2.After(1, func() {})
	tick2 = func() { s2.After(1, tick2) }
	s2.After(1, tick2)
	probes2, cancels := 0, 0
	s2.SetProbe(func() { probes2++ })
	s2.SetCancel(func() bool { cancels++; return cancels > 2 })
	if err := s2.Run(Infinity); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run = %v, want ErrCancelled", err)
	}
	if probes2 != cancels {
		t.Fatalf("progress probe fired %d times, cancel probe %d; want lockstep", probes2, cancels)
	}

	// Clearing the probe restores the no-probe fast path.
	s.SetProbe(nil)
	if s.Cancelled() {
		t.Fatal("cleared probe must never cancel")
	}
}

// TestProgressSnapshotCountersMatchGetters checks Progress against the
// individual counter getters after a run with elision accounting.
func TestProgressSnapshotCountersMatchGetters(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 10; i++ {
		s.After(Time(i+1), func() {})
	}
	s.CountElided(7)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	p := s.Progress()
	if p.Fired != s.Fired() || p.Scheduled != s.Scheduled() || p.Elided != s.Elided() {
		t.Fatalf("Progress %+v disagrees with getters fired=%d scheduled=%d elided=%d",
			p, s.Fired(), s.Scheduled(), s.Elided())
	}
	if p.Now != s.Now() || p.Pending != 0 {
		t.Fatalf("Progress %+v disagrees with Now=%v and a drained queue", p, s.Now())
	}
}
