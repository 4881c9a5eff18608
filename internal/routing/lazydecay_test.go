package routing

import (
	"testing"

	"dftmsn/internal/mac"
	"dftmsn/internal/packet"
)

// decayHarness drives two instances of the same decaying strategy through
// an identical timeline: the eager control arm by firing OnDecayTick at
// every epoch end (exactly the schedule a per-node sim.Ticker produces,
// including the due += interval floating-point accumulation), the lazy arm
// through the Decayer settle-on-read path. Any divergence in observed ξ,
// in XiAt look-ahead, or between fired and elided epoch counts is a bug in
// the closed-form rewrite.
type decayHarness struct {
	t        *testing.T
	lazy     Strategy
	eager    Strategy
	lazyD    Decayer
	eagerD   Decayer
	interval float64
	now      float64 // the lazy arm's clock
	running  bool
	next     float64 // the eager arm's next epoch end
	fired    uint64
}

func newDecayHarness(t *testing.T, mk func() Strategy, interval float64) *decayHarness {
	t.Helper()
	h := &decayHarness{t: t, lazy: mk(), eager: mk(), interval: interval}
	var ok bool
	if h.lazyD, ok = h.lazy.(Decayer); !ok {
		t.Fatalf("%s does not implement Decayer", h.lazy.Name())
	}
	h.eagerD = h.eager.(Decayer)
	h.lazyD.EnableLazyDecay(func() float64 { return h.now }, interval)
	return h
}

// advance moves virtual time to t, firing the eager arm's pending epochs.
func (h *decayHarness) advance(t float64) {
	h.t.Helper()
	if t < h.now {
		h.t.Fatalf("timeline moved backwards: %v -> %v", h.now, t)
	}
	h.now = t
	if !h.running {
		return
	}
	for h.next <= t {
		h.eagerD.OnDecayTick(h.next)
		h.fired++
		h.next += h.interval
	}
}

// checkAt verifies three things at time t: the lazy arm's XiAt look-ahead
// issued from the previous instant, then both arms' settled ξ after
// advancing, all exactly equal (==, no tolerance: the lazy path iterates
// the identical floating-point expression).
func (h *decayHarness) checkAt(t float64) {
	h.t.Helper()
	ahead := h.lazyD.XiAt(t)
	h.advance(t)
	if got := h.eager.Xi(); got != ahead {
		h.t.Fatalf("t=%v: XiAt look-ahead %v != eager ξ %v", t, ahead, got)
	}
	if lx, ex := h.lazy.Xi(), h.eager.Xi(); lx != ex {
		h.t.Fatalf("t=%v: lazy ξ %v != eager ξ %v", t, lx, ex)
	}
}

// start begins a decay sequence on both arms, as a node Start/Recover does.
func (h *decayHarness) start(t float64) {
	h.advance(t)
	if h.running {
		return
	}
	h.running = true
	h.next = t + h.interval
	h.lazyD.StartLazyDecay(t)
}

// stop halts the sequence on both arms, as a node Stop/Crash does.
func (h *decayHarness) stop(t float64) {
	h.advance(t)
	if !h.running {
		return
	}
	h.running = false
	h.lazyD.StopLazyDecay(t)
}

// reset clears learned soft state on both arms (a reboot that lost RAM).
func (h *decayHarness) reset(t float64) {
	h.advance(t)
	h.lazy.ResetRouting()
	h.eager.ResetRouting()
}

// sentCycle ends a working cycle with a successful multicast (FAD's Eq. 1
// timeout clock resets; a ZBR no-op).
func (h *decayHarness) sentCycle(t float64) {
	h.advance(t)
	h.lazy.OnCycleEnd(mac.Outcome{Sent: true}, t)
	h.eager.OnCycleEnd(mac.Outcome{Sent: true}, t)
}

// handoff runs a full generate → schedule → acknowledged-outcome sequence
// on both arms. The acknowledging receiver is node 0, which the ZBR
// harness classifies as a sink, so this also exercises the sink-contact
// flag interleaving with pending epochs.
func (h *decayHarness) handoff(t float64, msg packet.MessageID) {
	h.t.Helper()
	h.advance(t)
	cands := []mac.Candidate{{Node: 0, Xi: 0.9, BufferAvail: 8, History: 0.8}}
	for _, s := range []Strategy{h.lazy, h.eager} {
		s.Generate(msg, t, 1000)
		entries, _ := s.BuildSchedule(cands)
		if len(entries) > 0 {
			s.OnTxOutcome(entries, []packet.NodeID{entries[0].Node})
		}
	}
}

// finish stops both arms at t and closes the books: every epoch the eager
// arm fired must be accounted for by the lazy arm's elided-tick ledger.
func (h *decayHarness) finish(t float64) {
	h.t.Helper()
	h.stop(t)
	if got, want := h.lazyD.ElidedDecayTicks(), h.fired; got != want {
		h.t.Fatalf("elided-tick ledger %d != eager fired ticks %d", got, want)
	}
}

func mkFAD(interval, alpha float64) func() Strategy {
	return func() Strategy {
		cfg := DefaultFADConfig()
		cfg.DecayInterval = interval
		cfg.Alpha = alpha
		f, err := NewFAD(7, cfg)
		if err != nil {
			panic(err)
		}
		return f
	}
}

func mkZBR(beta float64) func() Strategy {
	return func() Strategy {
		cfg := DefaultZBRConfig()
		cfg.Beta = beta
		z, err := NewZBR(7, cfg, func(id packet.NodeID) bool { return id == 0 })
		if err != nil {
			panic(err)
		}
		return z
	}
}

// script runs the shared differential timeline: long idle stretches (many
// pending epochs), queries, a transmission and a reset landing exactly on
// epoch boundaries, resets and stop/start cycles (crash → reboot),
// successful transmissions resetting the Eq. 1 gate, and sub-interval
// query bursts.
func (h *decayHarness) script() {
	h.start(2)
	h.checkAt(2.5)
	h.checkAt(32) // exactly one interval after start
	// A hand-off and a reset exactly on the next two epoch ends, taken
	// from the eager arm's own accumulated schedule (62 s and 92 s at a
	// 30 s interval). Both arms apply the epoch ending at an instant
	// before work at that instant: the harness fires it in advance, the
	// lazy arm settles every epoch with end <= now.
	h.handoff(h.next, 3)
	h.checkAt(h.now)
	h.reset(h.next)
	h.checkAt(h.now)
	h.checkAt(400)       // long idle gap: many epochs settle at once
	h.handoff(410.25, 1) // tx: Eq. 1 gate now holds ξ for a while
	h.sentCycle(410.5)   // lastTx = 410.5
	h.checkAt(411)
	h.checkAt(439) // still inside the no-decay window
	h.checkAt(445) // gate reopens
	h.checkAt(700)
	h.reset(701) // reboot: soft state back to initial
	h.checkAt(730)
	h.stop(800.125) // crash: value freezes mid-epoch
	h.checkAt(950)  // frozen while down
	h.start(1000)   // recover: epochs resume from the reboot time
	h.checkAt(1001)
	h.handoff(1033.75, 2)
	h.sentCycle(1034)
	h.checkAt(2500) // long tail
	h.finish(2600.5)
	h.checkAt(3000) // still frozen after the final stop
}

// TestLazyDecayMatchesEager is the routing-layer differential test for the
// event-elision engine: the closed-form decay path must be observationally
// identical — to the last bit — to firing OnDecayTick per epoch, across
// transmissions, resets, and crash/reboot lifecycles, for both decaying
// schemes and several epoch intervals and memory constants.
func TestLazyDecayMatchesEager(t *testing.T) {
	cases := map[string]struct {
		mk       func() Strategy
		interval float64
	}{
		"fad-default":       {mkFAD(30, 0.1), 30},
		"fad-fast-epochs":   {mkFAD(30, 0.1), 7.3}, // tick interval != Eq. 1 Δ
		"fad-high-alpha":    {mkFAD(13.7, 0.9), 13.7},
		"fad-tiny-interval": {mkFAD(0.25, 0.3), 0.25},
		"zbr-default":       {mkZBR(0.1), 30},
		"zbr-heavy-beta":    {mkZBR(0.85), 4.2},
	}
	for name, tc := range cases {
		tc := tc
		t.Run(name, func(t *testing.T) {
			newDecayHarness(t, tc.mk, tc.interval).script()
		})
	}
}

// FuzzLazyDecayParity drives randomized timelines through the harness. The
// ops bytes pick the next action and the time step, so the fuzzer explores
// interleavings of epochs with transmissions, resets, and lifecycle
// changes at adversarial offsets (including steps far smaller and far
// larger than the epoch interval).
func FuzzLazyDecayParity(f *testing.F) {
	f.Add(30.0, 0.1, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(0.5, 0.9, []byte{5, 0, 5, 1, 5, 2, 5, 3, 5, 4})
	f.Add(7.25, 0.33, []byte{250, 9, 17, 33, 65, 129, 2, 4, 8, 16, 32, 64})
	f.Fuzz(func(t *testing.T, interval, alpha float64, ops []byte) {
		if interval != interval || interval <= 1e-3 || interval > 1e4 {
			t.Skip()
		}
		if alpha != alpha || alpha <= 0 || alpha >= 1 {
			t.Skip()
		}
		if len(ops) > 256 {
			ops = ops[:256]
		}
		for name, mk := range map[string]func() Strategy{
			"fad": mkFAD(interval, alpha),
			"zbr": mkZBR(alpha),
		} {
			t.Run(name, func(t *testing.T) {
				h := newDecayHarness(t, mk, interval)
				h.start(0.5)
				now := 0.5
				var msg packet.MessageID
				for _, b := range ops {
					// Steps sweep 0.07×..17× the interval so epoch
					// boundaries land both between and exactly on ops.
					now += interval * (0.07 + float64(b>>3)*0.55)
					switch b % 6 {
					case 0, 1:
						h.checkAt(now)
					case 2:
						msg++
						h.handoff(now, msg)
					case 3:
						h.sentCycle(now)
					case 4:
						h.reset(now)
					case 5:
						h.stop(now)
						now += interval * 1.3
						h.start(now)
					}
				}
				h.finish(now + interval*3)
			})
		}
	})
}
