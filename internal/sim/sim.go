// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of scheduled
// events. Events fire in (time, sequence) order, so two events scheduled for
// the same instant fire in the order they were scheduled, which makes every
// simulation run reproducible from its inputs alone.
//
// The kernel is intentionally single-threaded: all events run on the
// goroutine that calls Run. Parallelism in this repository lives one level
// up, in the sweep harness, which runs many independent kernels at once.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation. Virtual time is unrelated to wall-clock time; a Duration of
// 1.0 means one simulated second.
type Time = float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Infinity is a time later than any event a simulation can schedule.
const Infinity Time = math.MaxFloat64

// ErrCancelled is returned by Run when the cooperative cancellation probe
// armed via SetCancel reported true. Cancellation is observed strictly
// between events — never mid-event — so every event the run did fire is
// bit-identical to the corresponding prefix of an uncancelled run: no RNG
// draw, telemetry record, or metric of the completed prefix is perturbed.
var ErrCancelled = errors.New("sim: cancelled")

// Event is a scheduled callback. The zero value is not useful; events are
// created by Scheduler.At and Scheduler.After.
//
// Events come in two ownership flavors. Handle events (from At, After,
// AfterLabeled, Reschedule) are returned to the caller, who may Cancel or
// Reschedule them later; they are never recycled, so a retained handle
// stays permanently !Pending after it fires or is cancelled. Pooled events
// (from PostArg) return no handle, cannot be cancelled, and are
// recycled through the scheduler's free list after firing.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	fnArg    func(any) // set instead of fn for PostArg events
	arg      any
	index    int // position in the heap, -1 once fired or cancelled
	labels   string
	poolable bool // true for PostArg events: recycled after firing
}

// At returns the virtual time this event is scheduled to fire at.
func (e *Event) At() Time { return e.at }

// Seq returns the event's scheduling sequence number. Together with At it
// pins the event's exact position in the firing order, which is what the
// snapshot layer records so a restored run re-injects pending events at
// bit-identical heap positions.
func (e *Event) Seq() uint64 { return e.seq }

// Pending reports whether the event is still scheduled.
func (e *Event) Pending() bool { return e != nil && e.index >= 0 }

// Label returns the debugging label attached at scheduling time, if any.
func (e *Event) Label() string { return e.labels }

// EventPanic wraps a panic raised by an event callback with the simulation
// context of the event that was executing: virtual time, sequence number,
// and the debugging label attached at scheduling time. Without it, a panic
// mid-run surfaces with a Go stack but no hint of *when* in virtual time or
// *which* scheduled event went wrong.
type EventPanic struct {
	// Time is the virtual time the panicking event fired at.
	Time Time
	// Seq is the event's scheduling sequence number.
	Seq uint64
	// Label is the event's debugging label ("" if none was attached).
	Label string
	// Value is the original panic value.
	Value any
}

// Error implements error so recovered EventPanics compose with errors.As.
func (p *EventPanic) Error() string {
	label := p.Label
	if label == "" {
		label = "-"
	}
	return fmt.Sprintf("sim: panic in event t=%.6f seq=%d label=%s: %v", p.Time, p.Seq, label, p.Value)
}

// Unwrap exposes the original panic value when it was an error.
func (p *EventPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Scheduler owns the virtual clock and the pending-event queue.
// The zero value is a valid scheduler positioned at time 0.
type Scheduler struct {
	queue     eventHeap
	now       Time
	seq       uint64
	fired     uint64
	scheduled uint64
	elided    uint64
	onEvent   func(now Time, seq uint64, label string)
	free      []*Event // recycled PostArg events; handle events never enter
	isoSeq    uint64   // next isolated sequence number; 0 means "not yet used"

	cancel          func() bool // cooperative cancellation probe (see SetCancel)
	probe           func()      // progress probe sharing the cancel stride (see SetProbe)
	cancelCountdown int         // events until the next probe call
}

// CancelStride is how many events fire between calls to the cancellation
// probe. Probes are typically wall-clock checks (time.Now per call), so
// calling one per event would tax the kernel's hottest loop; a stride keeps
// the overhead negligible while still bounding the reaction latency to a
// few dozen events. The stride only affects *when* cancellation is noticed,
// never what the completed prefix computed.
const CancelStride = 64

// isoSeqBase is the first sequence number of the isolated band (see
// AtIsolated). It leaves the ordinary band below it more headroom than any
// run can consume while keeping the isolated band itself effectively
// unbounded.
const isoSeqBase uint64 = 1 << 62

// NewScheduler returns a scheduler with its clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Scheduled returns the number of events ever pushed onto the queue,
// counting reschedules (each consumes a sequence number, like a fresh
// scheduling).
func (s *Scheduler) Scheduled() uint64 { return s.scheduled }

// Elided returns the number of events that elision layers above the kernel
// replayed in closed form instead of scheduling (see CountElided).
func (s *Scheduler) Elided() uint64 { return s.elided }

// CountElided records n events that an elision layer coalesced away: work
// that an eager implementation would have scheduled and fired as distinct
// events but that was instead replayed in closed form. The kernel only
// aggregates the count; callers own the accounting discipline.
func (s *Scheduler) CountElided(n uint64) { s.elided += n }

// NextEventTime returns the firing time of the earliest pending event. The
// second result is false when the queue is empty. Peeking does not disturb
// the queue; checkpoint stepping uses it to stop at the horizon.
func (s *Scheduler) NextEventTime() (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) is a programming error and is reported via the returned error.
func (s *Scheduler) At(t Time, fn func()) (*Event, error) {
	if fn == nil {
		return nil, errors.New("sim: nil event func")
	}
	if t < s.now {
		return nil, fmt.Errorf("sim: schedule at %v before now %v", t, s.now)
	}
	e := &Event{at: t, seq: s.seq, fn: fn}
	s.seq++
	s.scheduled++
	s.queue.push(e)
	return e, nil
}

// After schedules fn to run d seconds from now. A negative d is clamped to
// zero so that callers computing small deltas never schedule into the past.
func (s *Scheduler) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	e, err := s.At(s.now+d, fn)
	if err != nil {
		// Unreachable: s.now+d >= s.now for d >= 0 and fn is checked by
		// the only caller paths that can pass nil.
		panic(err)
	}
	return e
}

// AfterLabeled is After with a debugging label attached to the event.
func (s *Scheduler) AfterLabeled(d Duration, label string, fn func()) *Event {
	e := s.After(d, fn)
	e.labels = label
	return e
}

// PostArg schedules fn(arg) to run d seconds from now without returning a
// handle. Posted events cannot be cancelled, which lets the scheduler
// recycle their Event objects through an internal free list: steady-state
// fire-and-forget scheduling allocates no Event per call. Threading the
// argument through the event instead of closing over it lets hot paths
// schedule one long-lived func(any) with zero per-call allocations (a
// pointer stored in an `any` does not allocate). A negative d is clamped
// to zero.
func (s *Scheduler) PostArg(d Duration, label string, fn func(any), arg any) {
	if fn == nil {
		panic(errors.New("sim: nil event func"))
	}
	e := s.pooled(d, label)
	e.fnArg = fn
	e.arg = arg
	s.scheduled++
	s.queue.push(e)
}

// pooled takes an Event from the free list (or allocates the pool's first
// use of a slot) and stamps it for scheduling d from now.
func (s *Scheduler) pooled(d Duration, label string) *Event {
	if d < 0 {
		d = 0
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{poolable: true}
	}
	e.at = s.now + d
	e.seq = s.seq
	s.seq++
	e.labels = label
	return e
}

// release returns a fired pooled event to the free list.
func (s *Scheduler) release(e *Event) {
	e.fn = nil
	e.fnArg = nil
	e.arg = nil
	e.labels = ""
	e.index = -1
	s.free = append(s.free, e)
}

// Reschedule moves e to fire d seconds from now with the given fn and label,
// reusing the Event object in place. It is semantically equivalent to
// Cancel(e) followed by AfterLabeled(d, label, fn) — exactly one sequence
// number is consumed either way — but allocates nothing. The caller must
// hold the only live reference to e; handles obtained from At, After,
// AfterLabeled, or a previous Reschedule qualify, whether pending, fired,
// or cancelled. A nil e falls back to AfterLabeled.
func (s *Scheduler) Reschedule(e *Event, d Duration, label string, fn func()) *Event {
	if e == nil || e.poolable {
		return s.AfterLabeled(d, label, fn)
	}
	if fn == nil {
		panic(errors.New("sim: nil event func"))
	}
	if d < 0 {
		d = 0
	}
	if e.index >= 0 {
		s.queue.remove(e.index)
	}
	e.at = s.now + d
	e.seq = s.seq
	s.seq++
	s.scheduled++
	e.fn = fn
	e.fnArg = nil
	e.arg = nil
	e.labels = label
	s.queue.push(e)
	return e
}

// RescheduleAt is Reschedule with an absolute firing time instead of a
// delay. Elision layers need it to land events at boundary times computed
// by replaying the eager arm's floating-point arithmetic: rescheduling by
// the delta (t - now) can round to a different float64 than the eager
// accumulation produced, and a one-ulp drift is enough to reorder two
// events. Times in the past are an error, mirroring At.
func (s *Scheduler) RescheduleAt(e *Event, t Time, label string, fn func()) (*Event, error) {
	if t < s.now {
		return nil, fmt.Errorf("sim: reschedule at %v before now %v", t, s.now)
	}
	if e == nil || e.poolable {
		fresh, err := s.At(t, fn)
		if err == nil {
			fresh.labels = label
		}
		return fresh, err
	}
	if fn == nil {
		return nil, errors.New("sim: nil event func")
	}
	if e.index >= 0 {
		s.queue.remove(e.index)
	}
	e.at = t
	e.seq = s.seq
	s.seq++
	s.scheduled++
	e.fn = fn
	e.fnArg = nil
	e.arg = nil
	e.labels = label
	s.queue.push(e)
	return e, nil
}

// AtIsolated schedules fn at absolute time t with a sequence number from the
// isolated band above isoSeqBase, without touching the ordinary sequence
// counter or the scheduled total. Layers whose mere presence must not perturb
// the rest of the run — the fault injector is the canonical user — schedule
// through it: adding or removing isolated events leaves every ordinary
// event's (time, seq) position and the kernel's counters bit-identical, which
// is what lets a warm snapshot taken before the first fault be re-armed with
// a different fault plan. Isolated events lose ties against ordinary events
// at the same instant and fire in scheduling order among themselves.
func (s *Scheduler) AtIsolated(t Time, label string, fn func()) (*Event, error) {
	if fn == nil {
		return nil, errors.New("sim: nil event func")
	}
	if t < s.now {
		return nil, fmt.Errorf("sim: schedule at %v before now %v", t, s.now)
	}
	if s.isoSeq == 0 {
		s.isoSeq = isoSeqBase
	}
	e := &Event{at: t, seq: s.isoSeq, labels: label, fn: fn}
	s.isoSeq++
	s.queue.push(e)
	return e, nil
}

// EventRef pins a pending event's exact queue position for a snapshot. The
// restore side re-injects the callback at the same (At, Seq) via InjectAt,
// reproducing the firing order bit-for-bit.
type EventRef struct {
	At    Time
	Seq   uint64
	Label string
}

// Ref captures a pending event's position, or nil if e is not pending.
func Ref(e *Event) *EventRef {
	if !e.Pending() {
		return nil
	}
	return &EventRef{At: e.at, Seq: e.seq, Label: e.labels}
}

// InjectAt schedules fn at the exact (time, seq) position recorded in ref,
// consuming no sequence number and not counting toward the scheduled total:
// the event being revived was already counted when originally scheduled, in
// the counters a restore carries over. It is the restore-side dual of Ref
// and must only be used with positions captured from a snapshot (the caller
// guarantees seq uniqueness). A nil ref is a no-op returning nil, so
// components can re-inject optional timers unconditionally.
func (s *Scheduler) InjectAt(ref *EventRef, fn func()) (*Event, error) {
	if ref == nil {
		return nil, nil
	}
	if fn == nil {
		return nil, errors.New("sim: nil event func")
	}
	if ref.At < s.now {
		return nil, fmt.Errorf("sim: inject at %v before now %v", ref.At, s.now)
	}
	e := &Event{at: ref.At, seq: ref.Seq, labels: ref.Label, fn: fn}
	s.queue.push(e)
	return e, nil
}

// KernelState is the scheduler's own snapshot: clock, counters, and both
// sequence allocators. The pending events themselves are captured by the
// components that own their callbacks (closures cannot be serialised).
type KernelState struct {
	Now       Time
	Seq       uint64
	IsoSeq    uint64
	Fired     uint64
	Scheduled uint64
	Elided    uint64
}

// ExportState captures the scheduler's clock and counters.
func (s *Scheduler) ExportState() KernelState {
	return KernelState{
		Now: s.now, Seq: s.seq, IsoSeq: s.isoSeq,
		Fired: s.fired, Scheduled: s.scheduled, Elided: s.elided,
	}
}

// ResetForRestore drops every pending event and overwrites the clock and
// counters from st. Retained handles of dropped events become permanently
// !Pending, exactly as if cancelled; the restore layer re-injects the events
// that were pending at snapshot time via InjectAt and hands components fresh
// handles. The free list survives (pooled events are never pending at a
// quiescent snapshot).
func (s *Scheduler) ResetForRestore(st KernelState) {
	for _, e := range s.queue {
		if e != nil {
			e.index = -1
			e.fn = nil
			e.fnArg = nil
			e.arg = nil
		}
	}
	s.queue = s.queue[:0]
	s.now = st.Now
	s.seq = st.Seq
	s.isoSeq = st.IsoSeq
	s.fired = st.Fired
	s.scheduled = st.Scheduled
	s.elided = st.Elided
}

// Cancel removes a pending event from the queue. Cancelling a nil, fired, or
// already-cancelled event is a no-op, so callers can cancel unconditionally.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	s.queue.remove(e.index)
	e.index = -1
	e.fn = nil
}

// SetCancel registers a cooperative cancellation probe. Run calls it between
// events (every CancelStride events, and once on entry); when it returns
// true the run stops with ErrCancelled, leaving the clock at the last fired
// event. A nil fn clears the probe. Because the probe is only consulted at
// event boundaries, a cancelled run's fired events are bit-identical to the
// same-length prefix of an uncancelled run — the property the deadline
// machinery in the scenario and service layers is built on.
func (s *Scheduler) SetCancel(fn func() bool) {
	s.cancel = fn
	s.cancelCountdown = 0
}

// SetProbe registers a progress probe sharing the cancellation stride: fn
// runs between events, every CancelStride events, whether or not a
// cancellation probe is armed. The probe must only observe (Progress,
// wall clocks) — it runs on the kernel goroutine between events, so any
// mutation of simulation state would break determinism. A nil fn clears it.
func (s *Scheduler) SetProbe(fn func()) {
	s.probe = fn
	s.cancelCountdown = 0
}

// Cancelled consults the cancellation probe directly, honouring the stride.
// Loops that drive the kernel through Step instead of Run (checkpointing,
// manual stepping tools) call it once per step to stay responsive to the
// same deadline that governs Run. The progress probe, when armed, fires on
// the same stride so observability costs nothing extra on the hot path.
func (s *Scheduler) Cancelled() bool {
	if s.cancel == nil && s.probe == nil {
		return false
	}
	if s.cancelCountdown > 0 {
		s.cancelCountdown--
		return false
	}
	s.cancelCountdown = CancelStride - 1
	if s.probe != nil {
		s.probe()
	}
	return s.cancel != nil && s.cancel()
}

// Progress is an allocation-free snapshot of the kernel's run counters,
// safe to take from a progress probe between events.
type Progress struct {
	Now       Time   // virtual clock
	Fired     uint64 // events executed
	Scheduled uint64 // events ever pushed (incl. reschedules)
	Elided    uint64 // events replayed in closed form by elision layers
	Pending   int    // events currently queued
}

// Progress returns the current kernel counters as one snapshot.
func (s *Scheduler) Progress() Progress {
	return Progress{
		Now:       s.now,
		Fired:     s.fired,
		Scheduled: s.scheduled,
		Elided:    s.elided,
		Pending:   len(s.queue),
	}
}

// SetEventHook registers fn to run after every fired event, with the
// event's virtual time, sequence number, and label. A nil fn clears the
// hook. The hook runs inside the event's panic-context wrapper, so a
// panicking hook (e.g. an invariant engine in panic mode) is also re-raised
// as an EventPanic carrying the event that exposed the breach.
func (s *Scheduler) SetEventHook(fn func(now Time, seq uint64, label string)) {
	s.onEvent = fn
}

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue.popMin()
	s.now = e.at
	s.fired++
	s.dispatch(e)
	if e.poolable {
		s.release(e)
	}
	return true
}

// dispatch runs one event callback (and the post-event hook) with panic
// context attached: a panic escaping either is re-raised as an *EventPanic
// identifying the event by virtual time, sequence number, and label.
// Already-wrapped panics pass through untouched. The identity is read
// before the callback runs: a callback may Reschedule its own fired handle.
func (s *Scheduler) dispatch(e *Event) {
	at, seq, label := e.at, e.seq, e.labels
	defer func() {
		if r := recover(); r != nil {
			if _, wrapped := r.(*EventPanic); wrapped {
				panic(r)
			}
			panic(&EventPanic{Time: at, Seq: seq, Label: label, Value: r})
		}
	}()
	if e.fnArg != nil {
		fn, arg := e.fnArg, e.arg
		e.fnArg = nil
		e.arg = nil
		fn(arg)
	} else {
		fn := e.fn
		e.fn = nil
		fn()
	}
	if s.onEvent != nil {
		s.onEvent(s.now, seq, label)
	}
}

// Run executes events in order until the queue drains, the clock would pass
// horizon, or the cancellation probe fires. The clock is left at
// min(horizon, last event time). It returns ErrCancelled if cancelled, nil
// otherwise.
func (s *Scheduler) Run(horizon Time) error {
	for len(s.queue) > 0 {
		if s.Cancelled() {
			return ErrCancelled
		}
		next := s.queue[0].at
		if next > horizon {
			break
		}
		s.Step()
	}
	if s.now < horizon && horizon < Infinity {
		s.now = horizon
	}
	return nil
}

// eventHeap is a hand-rolled binary min-heap ordered by (time, seq). The
// ordering is a strict total order (sequence numbers are unique), so any
// correct min-heap pops events in exactly the same order — replacing
// container/heap changes performance, never behavior. The sift routines are
// hole-based (shift, then place once) with the comparison inlined, which
// is the scheduler's single hottest path at scale.
type eventHeap []*Event

// before reports whether a must fire before b.
func before(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push appends e and restores the heap property.
func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// popMin removes and returns the earliest event, marking it fired
// (index -1).
func (h *eventHeap) popMin() *Event {
	old := *h
	e := old[0]
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		old[0] = last
		last.index = 0
		h.down(0)
	}
	e.index = -1
	return e
}

// remove deletes the event at heap position i (for Cancel/Reschedule). The
// caller owns the removed event and resets its index.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i == n {
		return
	}
	old[i] = last
	last.index = i
	h.down(i)
	if last.index == i {
		h.up(i)
	}
}

// up sifts the event at position i toward the root.
func (h eventHeap) up(i int) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if !before(e, p) {
			break
		}
		h[i] = p
		p.index = i
		i = parent
	}
	h[i] = e
	e.index = i
}

// down sifts the event at position i toward the leaves.
func (h eventHeap) down(i int) {
	n := len(h)
	e := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && before(h[r], h[child]) {
			child = r
		}
		c := h[child]
		if !before(c, e) {
			break
		}
		h[i] = c
		c.index = i
		i = child
	}
	h[i] = e
	e.index = i
}
