// Package radio models the physical layer of the DFT-MSN simulator: a
// shared broadcast medium with a fixed transmission range, finite bit rate,
// carrier sensing, and collisions, plus the per-node radio state machine
// whose state residency is metered for energy accounting.
//
// Model (paper §5 defaults: 10 m range, 10 kbps):
//
//   - A transmission occupies the channel for AirBits/bitrate seconds.
//   - Every radio within range of the transmitter that is idle-listening at
//     frame start begins receiving. Membership is evaluated at frame start;
//     frames are ≤ 0.1 s, far below the mobility coherence time.
//   - If a second frame starts while a radio is receiving, both receptions
//     at that radio are corrupted (collision); the radio hears noise.
//   - A radio that starts listening mid-frame senses a busy channel
//     (carrier sense) but cannot decode the frame in flight.
//   - Sleeping, switching, and transmitting radios hear nothing.
//   - Turning the radio on or off takes Profile.SwitchTime at switch power.
package radio

import (
	"errors"
	"fmt"

	"dftmsn/internal/energy"
	"dftmsn/internal/geo"
	"dftmsn/internal/packet"
	"dftmsn/internal/sim"
	"dftmsn/internal/simrand"
)

// busyIndexThreshold is the in-flight transmission count above which the
// carrier-sense query switches from walking the active slice to the 3×3
// cell-map lookup — nine map probes only pay off once they skip more than
// roughly nine transmissions.
const busyIndexThreshold = 9

// State is a radio operating state.
type State int

// Radio states.
const (
	Off State = iota + 1
	Idle
	Receiving
	Transmitting
	Switching
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Off:
		return "off"
	case Idle:
		return "idle"
	case Receiving:
		return "receiving"
	case Transmitting:
		return "transmitting"
	case Switching:
		return "switching"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Radio operation errors.
var (
	ErrNotIdle  = errors.New("radio: operation requires idle state")
	ErrNotOff   = errors.New("radio: operation requires off state")
	ErrDetached = errors.New("radio: not attached to a medium")
	ErrKilled   = errors.New("radio: node is dead")
)

// Handler receives radio events. Implementations are MAC engines.
type Handler interface {
	// OnFrame delivers a cleanly received frame at its end-of-air time.
	OnFrame(f packet.Frame)
	// OnCollision reports that a reception at this node was corrupted.
	// It fires once per corrupted frame, at the frame's end-of-air time.
	OnCollision()
	// OnTxDone reports completion of this node's own transmission.
	OnTxDone(f packet.Frame)
	// OnAwake reports that the radio finished powering on and is idle.
	OnAwake()
}

// Config parameterises a Medium.
type Config struct {
	// RangeM is the maximum transmission range in metres (paper: 10 m).
	RangeM float64
	// BitrateBps is the channel bit rate (paper: 10 kbps).
	BitrateBps float64
	// Sizes give frame air costs.
	Sizes packet.Sizes
	// LinearScan disables the uniform-grid spatial index, restoring the
	// O(N) full-radio scan at frame start and the full active-set scan for
	// carrier sense. It exists as the control arm for differential
	// equivalence tests and scale benchmarks; leave it false otherwise.
	LinearScan bool
}

// DefaultConfig returns the paper's §5 channel parameters.
func DefaultConfig() Config {
	return Config{RangeM: 10, BitrateBps: 10_000, Sizes: packet.DefaultSizes()}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.RangeM <= 0 {
		return fmt.Errorf("radio: range %v must be positive", c.RangeM)
	}
	if c.BitrateBps <= 0 {
		return fmt.Errorf("radio: bitrate %v must be positive", c.BitrateBps)
	}
	return c.Sizes.Validate()
}

// Stats aggregates channel-level counters for the whole medium.
type Stats struct {
	// FramesSent counts transmissions started, by frame kind.
	FramesSent map[packet.Kind]uint64
	// FramesDelivered counts clean receptions, by frame kind.
	FramesDelivered map[packet.Kind]uint64
	// Collisions counts receptions corrupted by overlap.
	Collisions uint64
	// Losses counts receptions corrupted by any random loss process
	// (LossesUniform + LossesBurst; kept as the historical total).
	Losses uint64
	// LossesUniform counts receptions corrupted by the i.i.d. process
	// (SetLoss).
	LossesUniform uint64
	// LossesBurst counts receptions corrupted by the Gilbert–Elliott
	// process (SetBurstLoss).
	LossesBurst uint64
	// ControlBits and DataBits count bits put on the air.
	ControlBits uint64
	DataBits    uint64
}

// BurstConfig parameterises the Gilbert–Elliott two-state loss process: the
// channel alternates exponentially distributed good and bad sojourns, and
// each reception is corrupted with the current state's loss probability.
type BurstConfig struct {
	// GoodLossProb is the per-reception loss probability in the good state.
	GoodLossProb float64
	// BadLossProb is the per-reception loss probability in the bad state.
	BadLossProb float64
	// MeanGoodSeconds is the mean good-state sojourn time.
	MeanGoodSeconds float64
	// MeanBadSeconds is the mean bad-state sojourn time.
	MeanBadSeconds float64
}

// Validate reports burst-configuration errors.
func (b BurstConfig) Validate() error {
	if b.GoodLossProb < 0 || b.GoodLossProb > 1 {
		return fmt.Errorf("radio: burst good-state loss %v out of [0,1]", b.GoodLossProb)
	}
	if b.BadLossProb < 0 || b.BadLossProb > 1 {
		return fmt.Errorf("radio: burst bad-state loss %v out of [0,1]", b.BadLossProb)
	}
	if b.MeanGoodSeconds <= 0 {
		return fmt.Errorf("radio: burst mean good sojourn %v must be positive", b.MeanGoodSeconds)
	}
	if b.MeanBadSeconds <= 0 {
		return fmt.Errorf("radio: burst mean bad sojourn %v must be positive", b.MeanBadSeconds)
	}
	return nil
}

// kindCounters is a per-frame-kind counter indexed by packet.Kind; every
// packet.Frame is one of that package's six kinds. The maps Stats returns
// and the lists ExportState writes are built from it on demand.
type kindCounters [packet.KindAck + 1]uint64

// toMap returns the nonzero counters as a map, the shape Stats exposes.
func (c *kindCounters) toMap() map[packet.Kind]uint64 {
	out := make(map[packet.Kind]uint64)
	for k, v := range c {
		if v > 0 {
			out[packet.Kind(k)] = v
		}
	}
	return out
}

// Medium is the shared broadcast channel. All radios attach to one medium.
type Medium struct {
	cfg      Config
	sched    *sim.Scheduler
	radios   []*Radio
	active   []*transmission // frames in flight; swap-removed at frame end
	index    *cellIndex      // nil when cfg.LinearScan
	posEpoch uint64          // bumped whenever a position may have changed; see hearersOf
	txPool   []*transmission // recycled transmission objects
	finishFn func(any)       // bound once; frame-end events carry the tx as arg
	stats    Stats           // scalar counters; the per-kind maps stay nil
	sent     kindCounters    // Stats.FramesSent
	received kindCounters    // Stats.FramesDelivered
	lossProb float64
	lossRng  *simrand.Source
	burst    *BurstConfig
	burstRng *simrand.Source
	burstBad bool
	burstEv  *sim.Event // retained flip handle; reused across flips
	flipFn   func()     // bound once; scheduleBurstFlip reuses it
}

// transmission is one frame in flight. Objects are pooled by the medium:
// receivers keeps its capacity across reuses, so steady-state frames
// allocate neither the struct nor the receiver list.
type transmission struct {
	src       *Radio
	srcEpoch  uint64
	srcPos    geo.Point
	frame     packet.Frame
	start     sim.Time
	end       sim.Time
	receivers []*Radio // radios that began reception, in attach order
	cellKey   int64    // srcPos cell while active (indexed mode)
	activeIdx int      // position in Medium.active
}

// NewMedium creates a medium driven by sched.
func NewMedium(sched *sim.Scheduler, cfg Config) (*Medium, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched == nil {
		return nil, errors.New("radio: nil scheduler")
	}
	m := &Medium{cfg: cfg, sched: sched, posEpoch: 1}
	if !cfg.LinearScan {
		// Cell side = transmission range: the minimum size for which the
		// 3×3 neighborhood provably covers the range disc.
		m.index = newCellIndex(cfg.RangeM)
	}
	m.finishFn = func(arg any) { m.finish(arg.(*transmission)) }
	m.flipFn = func() {
		m.burstBad = !m.burstBad
		m.scheduleBurstFlip()
	}
	return m, nil
}

// Config returns the medium configuration.
func (m *Medium) Config() Config { return m.cfg }

// SetLoss enables an independent per-reception corruption process with the
// given probability — a simple model of fading, interference and checksum
// failures beyond collisions. Losses show up to receivers exactly like
// collisions (an undecodable frame).
func (m *Medium) SetLoss(prob float64, rng *simrand.Source) error {
	if prob < 0 || prob > 1 {
		return fmt.Errorf("radio: loss probability %v out of [0,1]", prob)
	}
	if prob > 0 && rng == nil {
		return errors.New("radio: loss process needs a random source")
	}
	m.lossProb = prob
	m.lossRng = rng
	return nil
}

// SetBurstLoss enables the Gilbert–Elliott two-state loss process alongside
// the uniform one. The channel starts in the good state; state flips are
// scheduled immediately, so call this before the simulation runs. The
// uniform process (if any) is drawn first per reception, and a reception it
// already corrupted consumes no burst draw.
func (m *Medium) SetBurstLoss(cfg BurstConfig, rng *simrand.Source) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if rng == nil {
		return errors.New("radio: burst loss process needs a random source")
	}
	if m.burst != nil {
		return errors.New("radio: burst loss process already running")
	}
	c := cfg
	m.burst = &c
	m.burstRng = rng
	m.burstBad = false
	m.scheduleBurstFlip()
	return nil
}

// BurstBad reports whether the Gilbert–Elliott channel is currently in the
// bad state (always false when SetBurstLoss was never called).
func (m *Medium) BurstBad() bool { return m.burstBad }

// scheduleBurstFlip arms the next Gilbert–Elliott state transition, reusing
// the retained flip handle (the medium is its exclusive owner, so
// Reschedule is equivalent to the former per-flip AfterLabeled).
func (m *Medium) scheduleBurstFlip() {
	mean := m.burst.MeanGoodSeconds
	if m.burstBad {
		mean = m.burst.MeanBadSeconds
	}
	m.burstEv = m.sched.Reschedule(m.burstEv, m.burstRng.Exp(mean), "ge-flip", m.flipFn)
}

// burstLossProb returns the current per-reception burst loss probability.
func (m *Medium) burstLossProb() float64 {
	if m.burstBad {
		return m.burst.BadLossProb
	}
	return m.burst.GoodLossProb
}

// Stats returns a snapshot of the channel counters.
func (m *Medium) Stats() Stats {
	out := m.stats
	out.FramesSent = m.sent.toMap()
	out.FramesDelivered = m.received.toMap()
	return out
}

// AirTime returns the on-air duration of frame f under the medium's sizes
// and bitrate.
func (m *Medium) AirTime(f packet.Frame) sim.Duration {
	return float64(f.AirBits(m.cfg.Sizes)) / m.cfg.BitrateBps
}

// Attach creates a radio on this medium. position is sampled on demand and
// must remain valid for the simulation's lifetime; handler receives events;
// the radio starts in state initial (Off or Idle).
func (m *Medium) Attach(id packet.NodeID, position func() geo.Point, handler Handler, profile energy.Profile, initial State) (*Radio, error) {
	if position == nil || handler == nil {
		return nil, errors.New("radio: nil position or handler")
	}
	if initial != Off && initial != Idle {
		return nil, fmt.Errorf("radio: initial state must be Off or Idle, got %v", initial)
	}
	es := energy.Listen
	if initial == Off {
		es = energy.Sleep
	}
	meter, err := energy.NewMeter(profile, es, m.sched.Now())
	if err != nil {
		return nil, err
	}
	r := &Radio{
		id:       id,
		medium:   m,
		position: position,
		handler:  handler,
		profile:  profile,
		meter:    meter,
		state:    initial,
		idx:      len(m.radios),
	}
	r.offFn = func() { r.setState(Off, m.sched.Now()) }
	r.onFn = func() {
		r.setState(Idle, m.sched.Now())
		r.handler.OnAwake()
	}
	m.radios = append(m.radios, r)
	if m.index != nil {
		m.index.add(r, position())
		m.posEpoch++ // the new radio joins its neighbours' hearer lists
	}
	return r, nil
}

// RefreshPositions re-files every radio whose position moved it across a
// cell boundary since the last refresh, and starts a new position epoch, so
// every hearer list is rebuilt before its next use. Positions in this
// simulator are piecewise constant — they change only inside a mobility
// step — so calling this after each step keeps the index and the hearer
// lists exact; between refreshes they answer for the positions as of the
// last refresh, which is also what every radio's position function
// reports. Any code that moves a radio must call it before the next frame
// starts. A no-op in linear mode.
func (m *Medium) RefreshPositions() {
	if m.index == nil {
		return
	}
	m.posEpoch++
	for _, r := range m.radios {
		if key := m.index.cellKeyFor(r.position()); key != r.cellKey {
			m.index.move(r, key)
		}
	}
}

// ActiveTransmissions returns the number of frames currently in flight.
// Frames start and end only inside scheduler events, so the count is
// constant over any event-free stretch of virtual time — the property the
// event-elision planner's carrier scans rely on.
func (m *Medium) ActiveTransmissions() int { return len(m.active) }

// Busy reports whether r senses any transmission in range (carrier sense).
// A radio's own transmission does not count. In indexed mode only the 3×3
// cell neighborhood's active transmissions are examined.
func (m *Medium) Busy(r *Radio) bool {
	pos := r.position()
	rangeSq := m.cfg.RangeM * m.cfg.RangeM
	// Busy is an order-independent boolean, so the two scans below are
	// trivially equivalent; pick whichever inspects fewer transmissions.
	// With only a handful of frames in flight the plain slice walk beats
	// the nine cell-map lookups of the 3×3 neighbourhood query.
	if m.index != nil && len(m.active) > busyIndexThreshold {
		return m.index.busy(pos, r, rangeSq)
	}
	for _, tx := range m.active {
		if tx.src == r {
			continue
		}
		if tx.srcPos.DistSq(pos) <= rangeSq {
			return true
		}
	}
	return false
}

// transmit puts a frame on the air from r. Callers guarantee r is Idle.
func (m *Medium) transmit(r *Radio, f packet.Frame) {
	now := m.sched.Now()
	tx := m.newTransmission()
	tx.src = r
	tx.srcEpoch = r.epoch
	tx.srcPos = r.position()
	tx.frame = f
	tx.start = now
	tx.end = now + m.AirTime(f)
	tx.activeIdx = len(m.active)
	m.active = append(m.active, tx)
	if m.index != nil {
		tx.cellKey = r.cellKey // filed from the same epoch's position
		m.index.txAdd(tx)
	}
	m.sent[f.Kind()]++
	bits := uint64(f.AirBits(m.cfg.Sizes))
	if f.Kind() == packet.KindData {
		m.stats.DataBits += bits
	} else {
		m.stats.ControlBits += bits
	}

	// Start receptions at every idle-listening radio in range, in attach
	// order so the loss RNG draws fire in the same order on both paths.
	if m.index != nil {
		for _, other := range m.hearersOf(r, tx.srcPos) {
			m.reach(tx, other, now)
		}
	} else {
		rangeSq := m.cfg.RangeM * m.cfg.RangeM
		for _, other := range m.radios {
			if other == r || tx.srcPos.DistSq(other.position()) > rangeSq {
				continue
			}
			m.reach(tx, other, now)
		}
	}

	m.sched.PostArg(tx.end-now, "frame-end", m.finishFn, tx)
}

// hearersOf returns the radios within range of r, which is at pos, in
// attach order, as of the current position epoch. The list is rebuilt by
// one range-filtered walk of the 3×3 cells around r on r's first frame of
// an epoch; later frames of the epoch reuse it. It is exact because
// positions change only between epochs (see RefreshPositions), and it does
// not depend on radio state, so kills, revives and sleeps need no rebuild.
func (m *Medium) hearersOf(r *Radio, pos geo.Point) []*Radio {
	if r.hearEpoch != m.posEpoch {
		r.hearers = m.index.inRange(r, pos, m.cfg.RangeM*m.cfg.RangeM, r.hearers[:0])
		sortByAttachOrder(r.hearers)
		r.hearEpoch = m.posEpoch
	}
	return r.hearers
}

// reach applies frame tx's start to one radio in range of its source.
func (m *Medium) reach(tx *transmission, other *Radio, now sim.Time) {
	if other.state == Idle && other.preCapture != nil {
		// Give an idle radio's owner a chance to materialize elided
		// state before the frame becomes observable. The hook must
		// leave the radio Idle; it runs before beginReception and
		// before any loss draw, so the RNG stream is untouched.
		other.preCapture()
	}
	switch other.state {
	case Idle:
		other.beginReception(tx, now)
		if m.lossProb > 0 && m.lossRng.Bool(m.lossProb) {
			other.rx.corrupt = true
			other.rx.lost = true
		} else if m.burst != nil && m.burstRng.Bool(m.burstLossProb()) {
			other.rx.corrupt = true
			other.rx.lost = true
			other.rx.lostBurst = true
		}
	case Receiving:
		// Overlap corrupts whatever this radio was receiving.
		if other.rx != nil {
			other.rx.corrupt = true
		}
	default:
		// Off, Switching, Transmitting: hears nothing.
	}
}

// newTransmission takes a transmission from the pool, or allocates one.
func (m *Medium) newTransmission() *transmission {
	if n := len(m.txPool); n > 0 {
		tx := m.txPool[n-1]
		m.txPool[n-1] = nil
		m.txPool = m.txPool[:n-1]
		return tx
	}
	return &transmission{}
}

// finish completes a transmission: the source returns to idle and each
// uncorrupted receiver gets the frame. Only the receiver list captured at
// frame start is visited — a radio can hold a reception of tx at frame end
// only if it began that reception at frame start (Kill is the one way out
// mid-flight, and it clears the reception), so the list is exhaustive.
func (m *Medium) finish(tx *transmission) {
	last := len(m.active) - 1
	moved := m.active[last]
	m.active[tx.activeIdx] = moved
	moved.activeIdx = tx.activeIdx
	m.active[last] = nil
	m.active = m.active[:last]
	if m.index != nil {
		m.index.txRemove(tx)
	}
	now := m.sched.Now()

	// Release receivers first so their handlers observe a consistent world
	// before the sender's OnTxDone can start the next frame.
	for _, r := range tx.receivers {
		if r.rx == nil || r.rx.tx != tx {
			continue // reception abandoned by Kill (possibly reused since)
		}
		corrupted, lost, burst := r.rx.corrupt, r.rx.lost, r.rx.lostBurst
		r.rx = nil
		r.setState(Idle, now)
		switch {
		case lost:
			m.stats.Losses++
			if burst {
				m.stats.LossesBurst++
			} else {
				m.stats.LossesUniform++
			}
			r.handler.OnCollision()
		case corrupted:
			m.stats.Collisions++
			r.handler.OnCollision()
		default:
			m.received[tx.frame.Kind()]++
			r.handler.OnFrame(tx.frame)
		}
	}

	// The epoch check keeps a source that died and was revived mid-flight
	// from getting a stale OnTxDone for a frame its previous life sent.
	if !tx.src.killed && tx.src.epoch == tx.srcEpoch {
		tx.src.setState(Idle, now)
		tx.src.handler.OnTxDone(tx.frame)
	}

	// Recycle after the handlers ran: nothing retains the transmission past
	// this point (receivers' rx links were cleared above; frames may be
	// retained by handlers but are not pooled).
	tx.src = nil
	tx.frame = nil
	for i := range tx.receivers {
		tx.receivers[i] = nil
	}
	tx.receivers = tx.receivers[:0]
	m.txPool = append(m.txPool, tx)
}

// reception tracks one in-progress frame arrival at a radio.
type reception struct {
	tx        *transmission
	corrupt   bool
	lost      bool // corrupted by a random loss process, not overlap
	lostBurst bool // specifically by the Gilbert–Elliott process
}

// Radio is one node's transceiver.
type Radio struct {
	id         packet.NodeID
	medium     *Medium
	position   func() geo.Point
	handler    Handler
	profile    energy.Profile
	meter      *energy.Meter
	state      State
	rx         *reception
	rxSlot     reception // backing store for rx; reused across receptions
	wakeEv     *sim.Event
	offFn      func() // bound once at attach; Sleep/Wake reschedule into them
	onFn       func()
	killed     bool
	epoch      uint64 // bumped by Kill; stale in-flight work checks it
	idx        int    // attach order; fixes candidate iteration order
	cellKey    int64  // current spatial-index cell (indexed mode)
	preCapture func() // pre-reception hook; see SetPreCapture

	// Indexed mode: the radios in range of this one as of position epoch
	// hearEpoch (see Medium.hearersOf).
	hearers   []*Radio
	hearEpoch uint64
}

// SetPreCapture registers a hook invoked when this radio is idle and in
// range of a frame at its start instant, immediately before the radio would
// begin receiving it (and before any loss-process draw). Owners that elide
// events while idle use it to materialize pending state; the hook must
// leave the radio Idle. A nil hook disables the callback.
func (r *Radio) SetPreCapture(fn func()) { r.preCapture = fn }

// ID returns the owner node's identifier.
func (r *Radio) ID() packet.NodeID { return r.id }

// State returns the current radio state.
func (r *Radio) State() State { return r.state }

// Meter returns the radio's energy meter.
func (r *Radio) Meter() *energy.Meter { return r.meter }

// Position returns the radio's current position.
func (r *Radio) Position() geo.Point { return r.position() }

// CarrierBusy reports whether the radio senses an in-range transmission.
func (r *Radio) CarrierBusy() bool { return r.medium.Busy(r) }

// setState moves the radio and its energy meter to the new state.
func (r *Radio) setState(s State, now sim.Time) {
	r.state = s
	// Transition errors are impossible here: states map 1:1 to valid
	// energy states and the profile was validated at attach.
	_ = r.meter.Transition(energyState(s), now)
}

func energyState(s State) energy.State {
	switch s {
	case Off:
		return energy.Sleep
	case Idle:
		return energy.Listen
	case Receiving:
		return energy.Rx
	case Transmitting:
		return energy.Tx
	case Switching:
		return energy.Switch
	default:
		return energy.Listen
	}
}

// beginReception locks the radio onto tx until the frame ends. The
// reception lives in the radio's own slot (one reception is in progress at
// a time), and the radio joins tx's receiver list so frame end need not
// rescan the medium.
func (r *Radio) beginReception(tx *transmission, now sim.Time) {
	r.rxSlot = reception{tx: tx}
	r.rx = &r.rxSlot
	tx.receivers = append(tx.receivers, r)
	r.setState(Receiving, now)
}

// Transmit puts f on the air. The radio must be Idle; it transmits for the
// frame's air time and returns to Idle, after which Handler.OnTxDone fires.
// Transmit performs no carrier sensing — that is MAC policy (call
// CarrierBusy first).
func (r *Radio) Transmit(f packet.Frame) error {
	if r.medium == nil {
		return ErrDetached
	}
	if r.killed {
		return ErrKilled
	}
	if r.state != Idle {
		return fmt.Errorf("%w: state %v", ErrNotIdle, r.state)
	}
	if err := packet.Validate(f); err != nil {
		return err
	}
	now := r.medium.sched.Now()
	r.setState(Transmitting, now)
	r.medium.transmit(r, f)
	return nil
}

// Sleep turns the radio off. It must be Idle (a radio cannot abort a
// reception or transmission). The switch takes Profile.SwitchTime at switch
// power, after which the radio is Off.
func (r *Radio) Sleep() error {
	if r.killed {
		return ErrKilled
	}
	if r.state != Idle {
		return fmt.Errorf("%w: state %v", ErrNotIdle, r.state)
	}
	now := r.medium.sched.Now()
	r.setState(Switching, now)
	// The radio owns wakeEv exclusively, so the Event object is reused.
	r.wakeEv = r.medium.sched.Reschedule(r.wakeEv, r.profile.SwitchTime, "radio-off", r.offFn)
	return nil
}

// Wake turns the radio on. It must be Off or switching off; after
// Profile.SwitchTime at switch power the radio is Idle and Handler.OnAwake
// fires.
func (r *Radio) Wake() error {
	if r.killed {
		return ErrKilled
	}
	switch r.state {
	case Off:
		// proceed
	case Switching:
		// A wake racing a pending switch-off: Reschedule below replaces
		// the pending off with the switch toward idle.
	default:
		return fmt.Errorf("%w: state %v", ErrNotOff, r.state)
	}
	now := r.medium.sched.Now()
	r.setState(Switching, now)
	r.wakeEv = r.medium.sched.Reschedule(r.wakeEv, r.profile.SwitchTime, "radio-on", r.onFn)
	return nil
}

// Kill retires the radio: any in-progress reception is abandoned, pending
// wake/sleep switches are cancelled, and the radio goes Off — models a node
// failure or battery exhaustion mid-activity. If the radio is
// mid-transmission the frame already on the air completes (receivers decode
// it), but the dead source gets no OnTxDone, even if it is later Revived
// before the frame ends. Kill is permanent unless Revive is called.
func (r *Radio) Kill() {
	if r.killed {
		return
	}
	r.killed = true
	r.epoch++
	// Cancel but keep the handle: a revived radio's next Sleep/Wake
	// reschedules into the same Event object.
	r.medium.sched.Cancel(r.wakeEv)
	r.rx = nil
	r.setState(Off, r.medium.sched.Now())
}

// Revive returns a killed radio to service. The radio comes back Off —
// exactly as a rebooted mote powers up — so the owner must Wake it to
// resume listening. Reviving a live radio is an error.
func (r *Radio) Revive() error {
	if !r.killed {
		return errors.New("radio: revive of a live radio")
	}
	r.killed = false
	return nil
}

// Killed reports whether the radio is currently retired by Kill.
func (r *Radio) Killed() bool { return r.killed }
