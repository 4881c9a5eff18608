package sim

// Ticker fires a callback at a fixed virtual-time period until stopped.
// It is used for coarse periodic processes such as mobility updates and
// per-node decay epochs.
type Ticker struct {
	sched  *Scheduler
	period Duration
	label  string
	fn     func(now Time)
	ev     *Event
	active bool
	tick   func() // bound once; rearming reuses it and the Event object
}

// NewTicker creates a ticker bound to sched with the given period, event
// label and callback. The ticker is created stopped; call Start to begin.
func NewTicker(sched *Scheduler, period Duration, label string, fn func(now Time)) *Ticker {
	t := &Ticker{sched: sched, period: period, label: label, fn: fn}
	t.tick = func() {
		if !t.active {
			return
		}
		t.fn(t.sched.Now())
		if t.active {
			t.arm()
		}
	}
	return t
}

// Start schedules the first tick one period from now. Starting an already
// running ticker is a no-op.
func (t *Ticker) Start() {
	if t.active {
		return
	}
	t.active = true
	t.arm()
}

// Stop cancels the pending tick. The ticker may be restarted later.
func (t *Ticker) Stop() {
	t.active = false
	t.sched.Cancel(t.ev)
}

// arm (re)schedules the next tick, reusing the ticker's Event object: the
// ticker is its handle's exclusive owner, so Reschedule is equivalent to
// Cancel+After without the per-tick allocation.
func (t *Ticker) arm() {
	t.ev = t.sched.Reschedule(t.ev, t.period, t.label, t.tick)
}

// TickerState is a Ticker's snapshot: whether it runs and where its pending
// tick sits in the queue (nil when no tick is pending).
type TickerState struct {
	Active bool
	Ev     *EventRef
}

// ExportState captures the ticker for a snapshot.
func (t *Ticker) ExportState() TickerState {
	return TickerState{Active: t.active, Ev: Ref(t.ev)}
}

// RestoreState overlays a snapshot onto this ticker, re-injecting the
// pending tick at its exact recorded position. The scheduler's queue must
// already have been reset.
func (t *Ticker) RestoreState(st TickerState) error {
	t.active = st.Active
	ev, err := t.sched.InjectAt(st.Ev, t.tick)
	if err != nil {
		return err
	}
	if ev != nil {
		t.ev = ev
	}
	return nil
}
