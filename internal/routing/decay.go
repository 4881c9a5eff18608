package routing

// Decayer is implemented by schemes whose soft state decays on a period
// (FAD's Eq. 1 timeout, ZBR's history epochs). Schemes with constant
// metrics (Direct, Epidemic, Sink) do not implement it and schedule no
// decay events in any mode.
//
// The node layer drives a Decayer in one of two arms. The eager control
// arm runs a per-node sim.Ticker that calls OnDecayTick at every epoch
// end. The lazy arm calls EnableLazyDecay once and schedules nothing:
// epochs land at start+interval, start+2·interval, … (the same
// floating-point accumulation a sim.Ticker produces), each applies the
// identical update OnDecayTick would have applied at that instant, and
// reads between epochs see the value as of the last epoch. Lifecycle
// calls bracket the epoch sequence the way the node brackets its ticker:
// StartLazyDecay where the ticker would Start (node start, reboot),
// StopLazyDecay where it would Stop (node stop, crash, battery death) —
// pending epochs settle through the stop time and then the value freezes,
// so observers of a dead node read the value it died with.
type Decayer interface {
	// OnDecayTick runs one decay epoch ending at time now (eager arm).
	OnDecayTick(now float64)
	// EnableLazyDecay switches the scheme from ticker-driven decay to
	// settle-on-read. clock supplies the current virtual time; interval
	// is the epoch period the eager ticker would have used.
	EnableLazyDecay(clock func() float64, interval float64)
	// StartLazyDecay begins an epoch sequence: the first epoch ends one
	// interval after now.
	StartLazyDecay(now float64)
	// StopLazyDecay settles epochs through now, then freezes the value.
	StopLazyDecay(now float64)
	// XiAt returns the value Xi() will report at virtual time t >= now,
	// assuming no transmission or reset happens in between. It does not
	// mutate state beyond settling already-elapsed epochs; idle-cycle
	// planners use it to pre-compute contention windows.
	XiAt(t float64) float64
	// ElidedDecayTicks returns the cumulative number of epochs settled on
	// read — each one a kernel event the eager arm would have scheduled
	// and fired.
	ElidedDecayTicks() uint64
}

// decaySeq is the epoch sequencer FAD and ZBR embed. The scheme states its
// epoch rule once, as apply; OnDecayTick, settle-on-read and XiAt's
// look-ahead all run that rule, so the two arms cannot drift apart.
type decaySeq struct {
	apply    func(end float64) // the scheme's epoch rule, on live state
	clock    func() float64    // nil under the eager arm
	interval float64
	running  bool
	next     float64 // end time of the first pending epoch
	elided   uint64
}

// OnDecayTick implements Decayer.
func (s *decaySeq) OnDecayTick(now float64) { s.apply(now) }

// EnableLazyDecay implements Decayer.
func (s *decaySeq) EnableLazyDecay(clock func() float64, interval float64) {
	s.clock = clock
	s.interval = interval
}

// StartLazyDecay implements Decayer. Starting a running sequence is a
// no-op, like sim.Ticker.Start.
func (s *decaySeq) StartLazyDecay(now float64) {
	if s.running {
		return
	}
	s.running = true
	s.next = now + s.interval
}

// StopLazyDecay implements Decayer.
func (s *decaySeq) StopLazyDecay(now float64) {
	s.settleTo(now)
	s.running = false
}

// ElidedDecayTicks implements Decayer.
func (s *decaySeq) ElidedDecayTicks() uint64 { return s.elided }

// lazy reports whether epochs are pending on read rather than fired.
func (s *decaySeq) lazy() bool { return s.clock != nil && s.running }

// settle applies every epoch pending at the current clock. Schemes call it
// before reading or mutating the state an epoch touches, so every settled
// epoch sees the values it would have seen live.
func (s *decaySeq) settle() {
	if s.lazy() {
		s.settleTo(s.clock())
	}
}

// settleTo applies the pending epochs that end at or before now.
func (s *decaySeq) settleTo(now float64) {
	if !s.lazy() {
		return
	}
	for s.next <= now {
		s.apply(s.next)
		s.elided++
		s.next += s.interval
	}
}

// peek calls step for each pending epoch that ends at or before t, in
// order, without advancing the sequence. Callers settle first and fold
// step over a copy of their state.
func (s *decaySeq) peek(t float64, step func(end float64)) {
	if !s.lazy() {
		return
	}
	for end := s.next; end <= t; end += s.interval {
		step(end)
	}
}
