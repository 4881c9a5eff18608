package radio

import (
	"math"
	"reflect"
	"testing"

	"dftmsn/internal/energy"
	"dftmsn/internal/geo"
	"dftmsn/internal/packet"
	"dftmsn/internal/sim"
	"dftmsn/internal/simrand"
)

// recorder is a Handler that records events.
type recorder struct {
	frames     []packet.Frame
	collisions int
	txDone     []packet.Frame
	awake      int
}

func (r *recorder) OnFrame(f packet.Frame)  { r.frames = append(r.frames, f) }
func (r *recorder) OnCollision()            { r.collisions++ }
func (r *recorder) OnTxDone(f packet.Frame) { r.txDone = append(r.txDone, f) }
func (r *recorder) OnAwake()                { r.awake++ }

type rig struct {
	sched  *sim.Scheduler
	medium *Medium
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	m, err := NewMedium(sched, DefaultConfig())
	if err != nil {
		t.Fatalf("NewMedium: %v", err)
	}
	return &rig{sched: sched, medium: m}
}

func (rg *rig) attach(t *testing.T, id packet.NodeID, pos geo.Point, initial State) (*Radio, *recorder) {
	t.Helper()
	rec := &recorder{}
	p := pos
	r, err := rg.medium.Attach(id, func() geo.Point { return p }, rec, energy.BerkeleyMote(), initial)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return r, rec
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.RangeM = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero range accepted")
	}
	bad = DefaultConfig()
	bad.BitrateBps = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative bitrate accepted")
	}
	bad = DefaultConfig()
	bad.Sizes.ControlBits = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid sizes accepted")
	}
	if _, err := NewMedium(nil, DefaultConfig()); err == nil {
		t.Error("nil scheduler accepted")
	}
}

func TestAttachValidation(t *testing.T) {
	rg := newRig(t)
	if _, err := rg.medium.Attach(1, nil, &recorder{}, energy.BerkeleyMote(), Idle); err == nil {
		t.Error("nil position accepted")
	}
	if _, err := rg.medium.Attach(1, func() geo.Point { return geo.Point{} }, nil, energy.BerkeleyMote(), Idle); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := rg.medium.Attach(1, func() geo.Point { return geo.Point{} }, &recorder{}, energy.BerkeleyMote(), Receiving); err == nil {
		t.Error("bad initial state accepted")
	}
}

func TestAirTime(t *testing.T) {
	rg := newRig(t)
	// 50 bits at 10 kbps = 5 ms.
	if d := rg.medium.AirTime(&packet.Preamble{From: 1}); math.Abs(d-0.005) > 1e-12 {
		t.Fatalf("control air time = %v, want 5 ms", d)
	}
	// 1000 bits = 100 ms.
	if d := rg.medium.AirTime(&packet.Data{From: 1}); math.Abs(d-0.1) > 1e-12 {
		t.Fatalf("data air time = %v, want 100 ms", d)
	}
}

func TestCleanDeliveryInRange(t *testing.T) {
	rg := newRig(t)
	tx, txRec := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	_, rxRec := rg.attach(t, 2, geo.Point{X: 5, Y: 0}, Idle)
	f := &packet.Preamble{From: 1}
	if err := tx.Transmit(f); err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	if tx.State() != Transmitting {
		t.Fatalf("sender state %v during tx", tx.State())
	}
	if err := rg.sched.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(rxRec.frames) != 1 || rxRec.frames[0].Kind() != packet.KindPreamble {
		t.Fatalf("receiver frames = %+v, want one preamble", rxRec.frames)
	}
	if len(txRec.txDone) != 1 {
		t.Fatalf("OnTxDone fired %d times", len(txRec.txDone))
	}
	if tx.State() != Idle {
		t.Fatalf("sender state %v after tx, want idle", tx.State())
	}
	st := rg.medium.Stats()
	if st.FramesSent[packet.KindPreamble] != 1 || st.FramesDelivered[packet.KindPreamble] != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.ControlBits != 50 || st.DataBits != 0 {
		t.Fatalf("bits: %d control %d data", st.ControlBits, st.DataBits)
	}
}

func TestNoDeliveryOutOfRange(t *testing.T) {
	rg := newRig(t)
	tx, _ := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	_, far := rg.attach(t, 2, geo.Point{X: 10.1, Y: 0}, Idle)
	if err := tx.Transmit(&packet.Preamble{From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rg.sched.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(far.frames) != 0 || far.collisions != 0 {
		t.Fatalf("out-of-range node received: %+v", far)
	}
}

func TestExactRangeBoundaryDelivers(t *testing.T) {
	rg := newRig(t)
	tx, _ := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	_, edge := rg.attach(t, 2, geo.Point{X: 10, Y: 0}, Idle)
	if err := tx.Transmit(&packet.Preamble{From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rg.sched.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(edge.frames) != 1 {
		t.Fatalf("node at exact range got %d frames, want 1 (inclusive range)", len(edge.frames))
	}
}

func TestCollisionAtCommonReceiver(t *testing.T) {
	rg := newRig(t)
	// a at x=0, d at x=12: out of range of each other (12 > 10), victim at
	// x=6 hears both — the classic hidden-terminal collision.
	a, _ := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	d, _ := rg.attach(t, 4, geo.Point{X: 12, Y: 0}, Idle)
	_, victim := rg.attach(t, 3, geo.Point{X: 6, Y: 0}, Idle)
	if err := a.Transmit(&packet.Data{From: 1, ID: 10}); err != nil {
		t.Fatal(err)
	}
	rg.sched.After(0.01, func() {
		if err := d.Transmit(&packet.Data{From: 4, ID: 20}); err != nil {
			t.Errorf("d.Transmit: %v", err)
		}
	})
	if err := rg.sched.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(victim.frames) != 0 {
		t.Fatalf("victim decoded %d frames despite collision", len(victim.frames))
	}
	if victim.collisions == 0 {
		t.Fatal("victim saw no collision")
	}
	if rg.medium.Stats().Collisions == 0 {
		t.Fatal("medium counted no collisions")
	}
}

func TestSleepingRadioHearsNothing(t *testing.T) {
	rg := newRig(t)
	tx, _ := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	_, sleeper := rg.attach(t, 2, geo.Point{X: 5, Y: 0}, Off)
	if err := tx.Transmit(&packet.Preamble{From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rg.sched.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(sleeper.frames) != 0 || sleeper.collisions != 0 {
		t.Fatal("sleeping radio heard a frame")
	}
}

func TestTransmittingRadioHearsNothing(t *testing.T) {
	rg := newRig(t)
	// b sleeps through the start of a's frame, wakes mid-frame (cannot
	// decode it) and transmits its own frame while a is still on the air:
	// two overlapping transmitters, neither of which may decode the other.
	a, aRec := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	b, bRec := rg.attach(t, 2, geo.Point{X: 5, Y: 0}, Off)
	if err := a.Transmit(&packet.Data{From: 1, ID: 1}); err != nil {
		t.Fatal(err)
	}
	rg.sched.After(0.01, func() {
		if err := b.Wake(); err != nil {
			t.Errorf("Wake: %v", err)
		}
	})
	rg.sched.After(0.02, func() {
		if err := b.Transmit(&packet.Data{From: 2, ID: 2}); err != nil {
			t.Errorf("b.Transmit: %v", err)
		}
	})
	if err := rg.sched.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(aRec.frames) != 0 || len(bRec.frames) != 0 {
		t.Fatal("half-duplex violated: transmitter decoded a frame")
	}
	if len(aRec.txDone) != 1 || len(bRec.txDone) != 1 {
		t.Fatal("transmissions did not complete")
	}
}

func TestCarrierSense(t *testing.T) {
	rg := newRig(t)
	tx, _ := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	listener, _ := rg.attach(t, 2, geo.Point{X: 5, Y: 0}, Idle)
	far, _ := rg.attach(t, 3, geo.Point{X: 50, Y: 0}, Idle)
	if listener.CarrierBusy() {
		t.Fatal("idle channel sensed busy")
	}
	if err := tx.Transmit(&packet.Data{From: 1, ID: 1}); err != nil {
		t.Fatal(err)
	}
	// Mid-frame checks.
	rg.sched.After(0.05, func() {
		if !listener.CarrierBusy() {
			t.Error("in-range listener sensed idle during frame")
		}
		if far.CarrierBusy() {
			t.Error("far listener sensed busy")
		}
		if tx.CarrierBusy() {
			t.Error("own transmission sensed as busy carrier")
		}
	})
	if err := rg.sched.Run(1); err != nil {
		t.Fatal(err)
	}
	if listener.CarrierBusy() {
		t.Fatal("channel still busy after frame end")
	}
}

func TestMidFrameWakeupCannotDecode(t *testing.T) {
	rg := newRig(t)
	tx, _ := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	late, lateRec := rg.attach(t, 2, geo.Point{X: 5, Y: 0}, Off)
	if err := tx.Transmit(&packet.Data{From: 1, ID: 1}); err != nil {
		t.Fatal(err)
	}
	rg.sched.After(0.02, func() {
		if err := late.Wake(); err != nil {
			t.Errorf("Wake: %v", err)
		}
	})
	if err := rg.sched.Run(1); err != nil {
		t.Fatal(err)
	}
	if lateRec.awake != 1 {
		t.Fatalf("OnAwake fired %d times", lateRec.awake)
	}
	if len(lateRec.frames) != 0 {
		t.Fatal("mid-frame waker decoded the frame")
	}
}

func TestSleepWakeCycleAndEnergy(t *testing.T) {
	rg := newRig(t)
	r, rec := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	if err := r.Sleep(); err != nil {
		t.Fatal(err)
	}
	if r.State() != Switching {
		t.Fatalf("state %v immediately after Sleep, want switching", r.State())
	}
	if err := rg.sched.Run(0.01); err != nil {
		t.Fatal(err)
	}
	if r.State() != Off {
		t.Fatalf("state %v after switch time, want off", r.State())
	}
	// Sleep while off is invalid.
	if err := r.Sleep(); err == nil {
		t.Fatal("Sleep while off accepted")
	}
	if err := r.Wake(); err != nil {
		t.Fatal(err)
	}
	if err := rg.sched.Run(0.02); err != nil {
		t.Fatal(err)
	}
	if r.State() != Idle {
		t.Fatalf("state %v after wake, want idle", r.State())
	}
	if rec.awake != 1 {
		t.Fatalf("OnAwake fired %d times", rec.awake)
	}
	// Wake while idle is invalid.
	if err := r.Wake(); err == nil {
		t.Fatal("Wake while idle accepted")
	}
	// Energy: two switch periods were charged.
	sw := r.Meter().StateSeconds(energy.Switch, rg.sched.Now())
	if math.Abs(sw-2*energy.BerkeleyMote().SwitchTime) > 1e-9 {
		t.Fatalf("switch time charged %v, want %v", sw, 2*energy.BerkeleyMote().SwitchTime)
	}
}

func TestWakeDuringSwitchOff(t *testing.T) {
	rg := newRig(t)
	r, rec := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	if err := r.Sleep(); err != nil {
		t.Fatal(err)
	}
	// Wake before the switch-off completes.
	if err := r.Wake(); err != nil {
		t.Fatalf("Wake during switching: %v", err)
	}
	if err := rg.sched.Run(0.05); err != nil {
		t.Fatal(err)
	}
	if r.State() != Idle {
		t.Fatalf("state %v, want idle after wake-during-switch", r.State())
	}
	if rec.awake != 1 {
		t.Fatalf("OnAwake fired %d times", rec.awake)
	}
}

func TestTransmitRequiresIdle(t *testing.T) {
	rg := newRig(t)
	r, _ := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Off)
	if err := r.Transmit(&packet.Preamble{From: 1}); err == nil {
		t.Fatal("transmit while off accepted")
	}
	// Invalid frame rejected even when idle.
	r2, _ := rg.attach(t, 2, geo.Point{X: 1, Y: 0}, Idle)
	if err := r2.Transmit(&packet.RTS{From: 2, Xi: 2, Window: 1}); err == nil {
		t.Fatal("invalid frame accepted")
	}
	// Transmit while already transmitting.
	if err := r2.Transmit(&packet.Data{From: 2, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r2.Transmit(&packet.Data{From: 2, ID: 2}); err == nil {
		t.Fatal("transmit while transmitting accepted")
	}
	// Detached radio.
	var detached Radio
	if err := detached.Transmit(&packet.Preamble{From: 9}); err != ErrDetached {
		t.Fatalf("detached transmit err = %v, want ErrDetached", err)
	}
}

func TestReceiverCannotTransmitMidReception(t *testing.T) {
	rg := newRig(t)
	a, _ := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	b, _ := rg.attach(t, 2, geo.Point{X: 5, Y: 0}, Idle)
	if err := a.Transmit(&packet.Data{From: 1, ID: 1}); err != nil {
		t.Fatal(err)
	}
	rg.sched.After(0.01, func() {
		if b.State() != Receiving {
			t.Errorf("b state %v mid-frame, want receiving", b.State())
		}
		if err := b.Transmit(&packet.Preamble{From: 2}); err == nil {
			t.Error("transmit during reception accepted")
		}
	})
	if err := rg.sched.Run(1); err != nil {
		t.Fatal(err)
	}
}

func TestBackToBackFramesBothDelivered(t *testing.T) {
	// A sender chaining preamble then RTS from OnTxDone must deliver both
	// frames to an in-range listener.
	rg := newRig(t)
	sched := rg.sched
	rec := &recorder{}
	var tx *Radio
	chain := &chainHandler{rec: rec, next: func() {
		if err := tx.Transmit(&packet.RTS{From: 1, Xi: 0.5, FTD: 0.2, Window: 4}); err != nil {
			t.Errorf("chained transmit: %v", err)
		}
	}}
	var err error
	tx, err = rg.medium.Attach(1, func() geo.Point { return geo.Point{} }, chain, energy.BerkeleyMote(), Idle)
	if err != nil {
		t.Fatal(err)
	}
	_, listener := rg.attach(t, 2, geo.Point{X: 5, Y: 0}, Idle)
	if err := tx.Transmit(&packet.Preamble{From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(listener.frames) != 2 {
		t.Fatalf("listener got %d frames, want preamble+RTS", len(listener.frames))
	}
	if listener.frames[0].Kind() != packet.KindPreamble || listener.frames[1].Kind() != packet.KindRTS {
		t.Fatalf("frame order: %v, %v", listener.frames[0].Kind(), listener.frames[1].Kind())
	}
}

// chainHandler transmits the next frame once, from OnTxDone.
type chainHandler struct {
	rec   *recorder
	next  func()
	fired bool
}

func (c *chainHandler) OnFrame(f packet.Frame) { c.rec.OnFrame(f) }
func (c *chainHandler) OnCollision()           { c.rec.OnCollision() }
func (c *chainHandler) OnAwake()               { c.rec.OnAwake() }
func (c *chainHandler) OnTxDone(f packet.Frame) {
	c.rec.OnTxDone(f)
	if !c.fired {
		c.fired = true
		c.next()
	}
}

func TestLossProcessCorruptsFrames(t *testing.T) {
	rg := newRig(t)
	if err := rg.medium.SetLoss(1.5, simrand.New(1)); err == nil {
		t.Fatal("loss probability > 1 accepted")
	}
	if err := rg.medium.SetLoss(0.5, nil); err == nil {
		t.Fatal("loss without rng accepted")
	}
	if err := rg.medium.SetLoss(0.5, simrand.New(1)); err != nil {
		t.Fatal(err)
	}
	tx, _ := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	_, rx := rg.attach(t, 2, geo.Point{X: 5, Y: 0}, Idle)
	const frames = 400
	sent := 0
	var sendNext func()
	sendNext = func() {
		if sent >= frames {
			return
		}
		sent++
		if err := tx.Transmit(&packet.Preamble{From: 1}); err != nil {
			t.Errorf("transmit %d: %v", sent, err)
			return
		}
		rg.sched.After(0.01, sendNext)
	}
	sendNext()
	if err := rg.sched.Run(100); err != nil {
		t.Fatal(err)
	}
	got := len(rx.frames)
	if got == 0 || got == frames {
		t.Fatalf("delivered %d of %d with 50%% loss", got, frames)
	}
	if frac := float64(got) / frames; frac < 0.4 || frac > 0.6 {
		t.Fatalf("delivery fraction %.2f, want ~0.5", frac)
	}
	if st := rg.medium.Stats(); st.Losses == 0 || int(st.Losses)+got != frames {
		t.Fatalf("losses %d + delivered %d != %d", st.Losses, got, frames)
	}
	if rx.collisions != frames-got {
		t.Fatalf("receiver saw %d corruption events, want %d", rx.collisions, frames-got)
	}
}

func TestBurstLossSplitsStats(t *testing.T) {
	rg := newRig(t)
	// Degenerate GE chain: lossless good state, always-lossy bad state, so
	// every loss is attributable to the burst process and the split is exact.
	cfg := BurstConfig{GoodLossProb: 0, BadLossProb: 1, MeanGoodSeconds: 0.5, MeanBadSeconds: 0.5}
	if err := rg.medium.SetBurstLoss(BurstConfig{BadLossProb: 2, MeanGoodSeconds: 1, MeanBadSeconds: 1}, simrand.New(1)); err == nil {
		t.Fatal("burst loss probability > 1 accepted")
	}
	if err := rg.medium.SetBurstLoss(BurstConfig{BadLossProb: 1, MeanGoodSeconds: 0, MeanBadSeconds: 1}, simrand.New(1)); err == nil {
		t.Fatal("zero good sojourn accepted")
	}
	if err := rg.medium.SetBurstLoss(cfg, nil); err == nil {
		t.Fatal("burst loss without rng accepted")
	}
	if err := rg.medium.SetBurstLoss(cfg, simrand.New(1)); err != nil {
		t.Fatal(err)
	}
	if err := rg.medium.SetBurstLoss(cfg, simrand.New(1)); err == nil {
		t.Fatal("double SetBurstLoss accepted")
	}
	tx, _ := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	_, rx := rg.attach(t, 2, geo.Point{X: 5, Y: 0}, Idle)
	const frames = 400
	sent := 0
	var sendNext func()
	sendNext = func() {
		if sent >= frames {
			return
		}
		sent++
		if err := tx.Transmit(&packet.Preamble{From: 1}); err != nil {
			t.Errorf("transmit %d: %v", sent, err)
			return
		}
		rg.sched.After(0.01, sendNext)
	}
	sendNext()
	if err := rg.sched.Run(100); err != nil {
		t.Fatal(err)
	}
	st := rg.medium.Stats()
	got := len(rx.frames)
	if st.LossesBurst == 0 {
		t.Fatal("GE bad state corrupted nothing")
	}
	if st.LossesUniform != 0 {
		t.Fatalf("no uniform process set, yet %d uniform losses", st.LossesUniform)
	}
	if st.Losses != st.LossesUniform+st.LossesBurst {
		t.Fatalf("loss total %d != uniform %d + burst %d", st.Losses, st.LossesUniform, st.LossesBurst)
	}
	if int(st.Losses)+got != frames {
		t.Fatalf("losses %d + delivered %d != %d sent", st.Losses, got, frames)
	}
	// Equal mean sojourns with p=1/p=0 per state: loss fraction near 1/2,
	// but bursty (wide tolerance — sojourns are 50x the send interval).
	if frac := float64(st.LossesBurst) / frames; frac < 0.2 || frac > 0.8 {
		t.Fatalf("burst loss fraction %.2f, want bursty ~0.5", frac)
	}
}

func TestUniformAndBurstLossCoexist(t *testing.T) {
	rg := newRig(t)
	if err := rg.medium.SetLoss(0.3, simrand.New(2)); err != nil {
		t.Fatal(err)
	}
	// Always-bad channel: whatever survives the uniform coin is burst-lost.
	if err := rg.medium.SetBurstLoss(BurstConfig{GoodLossProb: 1, BadLossProb: 1, MeanGoodSeconds: 1, MeanBadSeconds: 1}, simrand.New(3)); err != nil {
		t.Fatal(err)
	}
	tx, _ := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	_, rx := rg.attach(t, 2, geo.Point{X: 5, Y: 0}, Idle)
	const frames = 100
	sent := 0
	var sendNext func()
	sendNext = func() {
		if sent >= frames {
			return
		}
		sent++
		if err := tx.Transmit(&packet.Preamble{From: 1}); err != nil {
			t.Errorf("transmit %d: %v", sent, err)
			return
		}
		rg.sched.After(0.01, sendNext)
	}
	sendNext()
	if err := rg.sched.Run(100); err != nil {
		t.Fatal(err)
	}
	st := rg.medium.Stats()
	if len(rx.frames) != 0 {
		t.Fatalf("delivered %d frames through an always-lossy channel", len(rx.frames))
	}
	if st.LossesUniform == 0 || st.LossesBurst == 0 {
		t.Fatalf("expected both causes: uniform %d burst %d", st.LossesUniform, st.LossesBurst)
	}
	if st.LossesUniform+st.LossesBurst != frames {
		t.Fatalf("causes sum to %d, want %d", st.LossesUniform+st.LossesBurst, frames)
	}
}

func TestReviveRestoresRadio(t *testing.T) {
	rg := newRig(t)
	r, rec := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	if err := r.Revive(); err == nil {
		t.Fatal("revive of a live radio accepted")
	}
	r.Kill()
	if err := r.Revive(); err != nil {
		t.Fatal(err)
	}
	if r.Killed() || r.State() != Off {
		t.Fatalf("after revive: killed=%v state=%v, want live and off", r.Killed(), r.State())
	}
	if err := r.Wake(); err != nil {
		t.Fatalf("Wake after revive: %v", err)
	}
	if err := rg.sched.Run(1); err != nil {
		t.Fatal(err)
	}
	if r.State() != Idle || rec.awake != 1 {
		t.Fatalf("revived radio state %v awake=%d, want idle after one wake", r.State(), rec.awake)
	}
	// And it participates in traffic again.
	tx, _ := rg.attach(t, 2, geo.Point{X: 5, Y: 0}, Idle)
	if err := tx.Transmit(&packet.Preamble{From: 2}); err != nil {
		t.Fatal(err)
	}
	if err := rg.sched.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(rec.frames) != 1 {
		t.Fatalf("revived radio received %d frames, want 1", len(rec.frames))
	}
}

func TestReviveMidFlightSuppressesStaleTxDone(t *testing.T) {
	// A source that dies and reboots while its frame is still on the air
	// must not see OnTxDone for that frame: it belongs to the previous life.
	rg := newRig(t)
	tx, txRec := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	_, rx := rg.attach(t, 2, geo.Point{X: 5, Y: 0}, Idle)
	if err := tx.Transmit(&packet.Data{From: 1, ID: 7}); err != nil {
		t.Fatal(err)
	}
	rg.sched.After(0.01, func() {
		tx.Kill()
		if err := tx.Revive(); err != nil {
			t.Errorf("Revive: %v", err)
		}
		if err := tx.Wake(); err != nil {
			t.Errorf("Wake: %v", err)
		}
	})
	if err := rg.sched.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(rx.frames) != 1 {
		t.Fatalf("in-flight frame not delivered: got %d", len(rx.frames))
	}
	if len(txRec.txDone) != 0 {
		t.Fatal("revived source got OnTxDone for its previous life's frame")
	}
	if tx.State() != Idle {
		t.Fatalf("revived source state %v, want idle", tx.State())
	}
}

func TestKillRetiresRadio(t *testing.T) {
	rg := newRig(t)
	tx, _ := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	victim, vRec := rg.attach(t, 2, geo.Point{X: 5, Y: 0}, Idle)
	// Kill the victim mid-reception: the frame must not be delivered.
	if err := tx.Transmit(&packet.Data{From: 1, ID: 1}); err != nil {
		t.Fatal(err)
	}
	rg.sched.After(0.01, func() {
		if victim.State() != Receiving {
			t.Error("victim not receiving before kill")
		}
		victim.Kill()
		if victim.State() != Off || !victim.Killed() {
			t.Errorf("victim state %v killed=%v", victim.State(), victim.Killed())
		}
	})
	if err := rg.sched.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(vRec.frames) != 0 || vRec.collisions != 0 {
		t.Fatal("dead radio produced events")
	}
	// All operations fail on a dead radio; Kill is idempotent.
	if err := victim.Transmit(&packet.Preamble{From: 2}); err != ErrKilled {
		t.Fatalf("Transmit on dead radio: %v", err)
	}
	if err := victim.Wake(); err != ErrKilled {
		t.Fatalf("Wake on dead radio: %v", err)
	}
	if err := victim.Sleep(); err != ErrKilled {
		t.Fatalf("Sleep on dead radio: %v", err)
	}
	victim.Kill()
}

func TestKillMidTransmissionStillDelivers(t *testing.T) {
	// The frame already on the air completes even if its source dies; the
	// dead source must not get OnTxDone.
	rg := newRig(t)
	tx, txRec := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	_, rx := rg.attach(t, 2, geo.Point{X: 5, Y: 0}, Idle)
	if err := tx.Transmit(&packet.Data{From: 1, ID: 9}); err != nil {
		t.Fatal(err)
	}
	rg.sched.After(0.01, tx.Kill)
	if err := rg.sched.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(rx.frames) != 1 {
		t.Fatalf("receiver got %d frames, want the in-flight one", len(rx.frames))
	}
	if len(txRec.txDone) != 0 {
		t.Fatal("dead source got OnTxDone")
	}
	if tx.State() != Off {
		t.Fatalf("dead source state %v", tx.State())
	}
}

func TestStatsSnapshotIsolation(t *testing.T) {
	rg := newRig(t)
	tx, _ := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	if err := tx.Transmit(&packet.Preamble{From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rg.sched.Run(1); err != nil {
		t.Fatal(err)
	}
	snap := rg.medium.Stats()
	snap.FramesSent[packet.KindData] = 999
	if rg.medium.Stats().FramesSent[packet.KindData] == 999 {
		t.Fatal("Stats exposed internal map")
	}
}

// TestFrameCountersSnapshotRoundTrip checks the per-kind frame counters'
// snapshot form: only kinds with a count are listed, in kind order, a
// restore reproduces Stats exactly, and a snapshot naming a frame kind the
// medium does not count is refused.
func TestFrameCountersSnapshotRoundTrip(t *testing.T) {
	rg := newRig(t)
	src, _ := rg.attach(t, 1, geo.Point{X: 0, Y: 0}, Idle)
	rg.attach(t, 2, geo.Point{X: 5, Y: 0}, Idle)
	for _, f := range []packet.Frame{&packet.Preamble{From: 1}, &packet.Data{From: 1, ID: 1}, &packet.Preamble{From: 1}} {
		if err := src.Transmit(f); err != nil {
			t.Fatal(err)
		}
		if err := rg.sched.Run(sim.Infinity); err != nil {
			t.Fatal(err)
		}
	}
	st, err := rg.medium.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	want := []KindCount{{Kind: packet.KindPreamble, Count: 2}, {Kind: packet.KindData, Count: 1}}
	if !reflect.DeepEqual(st.Stats.FramesSent, want) || !reflect.DeepEqual(st.Stats.FramesDelivered, want) {
		t.Fatalf("snapshot counters sent %v delivered %v, want %v for both", st.Stats.FramesSent, st.Stats.FramesDelivered, want)
	}

	fresh := newRig(t)
	if err := fresh.medium.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.medium.Stats(), rg.medium.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}

	st.Stats.FramesSent = append(st.Stats.FramesSent, KindCount{Kind: packet.KindAck + 1, Count: 1})
	if err := newRig(t).medium.RestoreState(st); err == nil {
		t.Fatal("restore accepted a count for an unknown frame kind")
	}
}
