package radio

import (
	"fmt"
	"strings"
	"testing"

	"dftmsn/internal/energy"
	"dftmsn/internal/geo"
	"dftmsn/internal/packet"
	"dftmsn/internal/sim"
	"dftmsn/internal/simrand"
)

// loggingHandler appends every observable radio event to a shared digest,
// tagged with virtual time and node id, so two runs can be compared
// line-for-line.
type loggingHandler struct {
	id    packet.NodeID
	sched *sim.Scheduler
	log   *strings.Builder
}

func (h *loggingHandler) OnFrame(f packet.Frame) {
	fmt.Fprintf(h.log, "t=%.9f node=%d frame kind=%v\n", h.sched.Now(), h.id, f.Kind())
}
func (h *loggingHandler) OnCollision() {
	fmt.Fprintf(h.log, "t=%.9f node=%d collision\n", h.sched.Now(), h.id)
}
func (h *loggingHandler) OnTxDone(f packet.Frame) {
	fmt.Fprintf(h.log, "t=%.9f node=%d txdone kind=%v\n", h.sched.Now(), h.id, f.Kind())
}
func (h *loggingHandler) OnAwake() {
	fmt.Fprintf(h.log, "t=%.9f node=%d awake\n", h.sched.Now(), h.id)
}

// runDifferentialScript drives one medium through a randomized script of
// transmissions, mobility jumps, carrier-sense queries, sleeps/wakes, and
// kills/revives, with uniform and burst loss armed. The script is fully
// determined by seed, so an indexed and a linear run of the same seed must
// produce identical digests. Half the actions fall on a few chatty radios,
// so sources send several frames per position epoch; the second result
// counts the indexed arm's frames that reused a hearer list (0 when linear).
func runDifferentialScript(t *testing.T, seed uint64, linear bool) (string, int) {
	t.Helper()
	const (
		nRadios = 60
		chatty  = 4
		field   = 60.0 // dense enough for in-range contacts at 10 m
		horizon = 40.0
	)
	sched := sim.NewScheduler()
	cfg := DefaultConfig()
	cfg.LinearScan = linear
	m, err := NewMedium(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(seed)
	if err := m.SetLoss(0.1, rng.Split("loss")); err != nil {
		t.Fatal(err)
	}
	if err := m.SetBurstLoss(BurstConfig{
		GoodLossProb: 0.02, BadLossProb: 0.6,
		MeanGoodSeconds: 5, MeanBadSeconds: 1,
	}, rng.Split("burst")); err != nil {
		t.Fatal(err)
	}

	var log strings.Builder
	pos := make([]geo.Point, nRadios)
	radios := make([]*Radio, nRadios)
	place := rng.Split("place")
	for i := range radios {
		pos[i] = geo.Point{X: place.Uniform(0, field), Y: place.Uniform(0, field)}
		i := i
		h := &loggingHandler{id: packet.NodeID(i), sched: sched, log: &log}
		r, err := m.Attach(packet.NodeID(i), func() geo.Point { return pos[i] }, h, energy.BerkeleyMote(), Idle)
		if err != nil {
			t.Fatal(err)
		}
		radios[i] = r
	}

	// Mobility: every 0.5 s each radio takes a bounded random step; the
	// index is refreshed after the batch, like the scenario ticker does.
	walkRng := rng.Split("walk")
	walk := sim.NewTicker(sched, 0.5, "walk", func(sim.Time) {
		for i := range pos {
			pos[i].X += walkRng.Uniform(-4, 4)
			pos[i].Y += walkRng.Uniform(-4, 4)
			if pos[i].X < 0 {
				pos[i].X = -pos[i].X
			}
			if pos[i].Y < 0 {
				pos[i].Y = -pos[i].Y
			}
			if pos[i].X > field {
				pos[i].X = 2*field - pos[i].X
			}
			if pos[i].Y > field {
				pos[i].Y = 2*field - pos[i].Y
			}
		}
		m.RefreshPositions()
	})
	walk.Start()

	// Random traffic + churn + carrier-sense probes.
	actRng := rng.Split("actions")
	reused := 0
	var act func()
	act = func() {
		i := actRng.IntN(nRadios)
		if actRng.Bool(0.5) {
			i = actRng.IntN(chatty)
		}
		r := radios[i]
		switch actRng.IntN(10) {
		case 0: // kill/revive cycle
			if r.Killed() {
				if err := r.Revive(); err == nil {
					_ = r.Wake()
				}
			} else if actRng.Bool(0.5) {
				r.Kill()
			}
		case 1: // sleep/wake
			if r.State() == Idle {
				_ = r.Sleep()
			} else if r.State() == Off && !r.Killed() {
				_ = r.Wake()
			}
		case 2: // carrier-sense probe: the answer is part of the digest
			fmt.Fprintf(&log, "t=%.9f node=%d busy=%v\n", sched.Now(), i, m.Busy(r))
		default: // transmit whatever the state allows
			var f packet.Frame
			if actRng.Bool(0.3) {
				f = &packet.Data{From: r.ID(), ID: packet.MessageID(actRng.IntN(1000))}
			} else {
				f = &packet.Preamble{From: r.ID()}
			}
			cached := !linear && r.hearEpoch == m.posEpoch
			if err := r.Transmit(f); err != nil {
				fmt.Fprintf(&log, "t=%.9f node=%d txrefused\n", sched.Now(), i)
			} else if cached {
				reused++
			}
		}
		sched.AfterLabeled(actRng.Exp(0.02), "act", act)
	}
	sched.AfterLabeled(0, "act", act)

	if err := sched.Run(horizon); err != nil {
		t.Fatal(err)
	}

	st := m.Stats()
	fmt.Fprintf(&log, "stats sent=%v delivered=%v collisions=%d losses=%d/%d/%d bits=%d/%d fired=%d\n",
		st.FramesSent, st.FramesDelivered, st.Collisions,
		st.Losses, st.LossesUniform, st.LossesBurst,
		st.ControlBits, st.DataBits, sched.Fired())
	return log.String(), reused
}

// TestIndexedMediumMatchesLinearScan is the medium-level differential
// property test: across randomized mobility/loss/churn scripts, the spatial
// index and the cached hearer lists must change nothing observable —
// deliveries, collision counts, carrier-sense answers, stats, and event
// counts are all byte-identical to the linear scan's.
func TestIndexedMediumMatchesLinearScan(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			indexed, reused := runDifferentialScript(t, seed, false)
			linear, _ := runDifferentialScript(t, seed, true)
			if indexed != linear {
				reportFirstDiff(t, indexed, linear)
			}
			if reused < 100 {
				t.Fatalf("only %d frames reused a hearer list; the script should send several frames per position epoch", reused)
			}
		})
	}
}

func reportFirstDiff(t *testing.T, indexed, linear string) {
	t.Helper()
	il := strings.Split(indexed, "\n")
	ll := strings.Split(linear, "\n")
	for i := 0; i < len(il) && i < len(ll); i++ {
		if il[i] != ll[i] {
			t.Fatalf("digests diverge at line %d:\n  indexed: %s\n  linear:  %s", i+1, il[i], ll[i])
		}
	}
	t.Fatalf("digest lengths differ: indexed %d lines, linear %d lines", len(il), len(ll))
}

// TestRefreshPositionsRefilesMovedRadios checks the index membership
// invariant directly: after a cross-cell move plus refresh, the radio is
// reachable from its new neighborhood and gone from the old one.
func TestRefreshPositionsRefilesMovedRadios(t *testing.T) {
	sched := sim.NewScheduler()
	m, err := NewMedium(sched, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := geo.Point{X: 5, Y: 5}
	rec := &recorder{}
	sender, err := m.Attach(1, func() geo.Point { return geo.Point{X: 0, Y: 5} }, &recorder{}, energy.BerkeleyMote(), Idle)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Attach(2, func() geo.Point { return p }, rec, energy.BerkeleyMote(), Idle)
	if err != nil {
		t.Fatal(err)
	}
	_ = r

	// Move the receiver far away without refreshing: the index still files
	// it near the sender, but the range check keeps the behavior correct
	// for the distance the position function reports.
	p = geo.Point{X: 55, Y: 55}
	m.RefreshPositions()
	if err := sender.Transmit(&packet.Preamble{From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if len(rec.frames) != 0 {
		t.Fatalf("moved-away radio still received %d frames", len(rec.frames))
	}

	// Move back in range and refresh: deliveries resume.
	p = geo.Point{X: 5, Y: 5}
	m.RefreshPositions()
	if err := sender.Transmit(&packet.Preamble{From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if len(rec.frames) != 1 {
		t.Fatalf("returned radio received %d frames, want 1", len(rec.frames))
	}
}

// hearerPair drives an indexed and a linear medium through the same
// operations over one shared position table, so each frame's receivers on
// the cached hearer-list path can be checked against the linear scan's.
type hearerPair struct {
	t      *testing.T
	pos    []geo.Point
	scheds [2]*sim.Scheduler
	media  [2]*Medium // indexed, linear
	radios [2][]*Radio
}

func newHearerPair(t *testing.T) *hearerPair {
	t.Helper()
	p := &hearerPair{t: t}
	for arm := range p.media {
		cfg := DefaultConfig()
		cfg.LinearScan = arm == 1
		p.scheds[arm] = sim.NewScheduler()
		m, err := NewMedium(p.scheds[arm], cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.media[arm] = m
	}
	return p
}

// attach adds a radio at the given position to both media.
func (p *hearerPair) attach(at geo.Point) int {
	p.t.Helper()
	i := len(p.pos)
	p.pos = append(p.pos, at)
	for arm, m := range p.media {
		r, err := m.Attach(packet.NodeID(i), func() geo.Point { return p.pos[i] }, nopHandler{}, energy.BerkeleyMote(), Idle)
		if err != nil {
			p.t.Fatal(err)
		}
		p.radios[arm] = append(p.radios[arm], r)
	}
	return i
}

// move relocates radio i and refreshes both media, as a mobility step does.
func (p *hearerPair) move(i int, to geo.Point) {
	p.pos[i] = to
	for _, m := range p.media {
		m.RefreshPositions()
	}
}

// each applies fn to radio i of both media, then runs both to quiescence.
func (p *hearerPair) each(i int, fn func(r *Radio) error) {
	p.t.Helper()
	for arm, r := range [2]*Radio{p.radios[0][i], p.radios[1][i]} {
		if err := fn(r); err != nil {
			p.t.Fatal(err)
		}
		for p.scheds[arm].Step() {
		}
	}
}

// send transmits one frame from radio i on both media and checks that the
// radios that began receiving it are the same, in the same order, and are
// want.
func (p *hearerPair) send(i int, want ...packet.NodeID) {
	p.t.Helper()
	var got [2][]packet.NodeID
	for arm, m := range p.media {
		if err := p.radios[arm][i].Transmit(&packet.Preamble{From: packet.NodeID(i)}); err != nil {
			p.t.Fatal(err)
		}
		for _, r := range m.active[len(m.active)-1].receivers {
			got[arm] = append(got[arm], r.id)
		}
		for p.scheds[arm].Step() {
		}
	}
	if fmt.Sprint(got[0]) != fmt.Sprint(got[1]) {
		p.t.Fatalf("frame from %d: indexed receivers %v, linear scan %v", i, got[0], got[1])
	}
	if fmt.Sprint(got[0]) != fmt.Sprint(want) {
		p.t.Fatalf("frame from %d: receivers %v, want %v", i, got[0], want)
	}
}

// TestHearerListsMatchLinearScan walks the hearer-list cache through the
// events that must or must not rebuild it — repeat frames within one
// position epoch, moves into and out of range (across cells and within
// one), a kill and revive, and an attach after the first frame — checking
// every frame's receivers against the linear scan.
func TestHearerListsMatchLinearScan(t *testing.T) {
	p := newHearerPair(t)
	a := p.attach(geo.Point{X: 21, Y: 21})
	b := p.attach(geo.Point{X: 25, Y: 21})
	c := p.attach(geo.Point{X: 45, Y: 21}) // out of range, two cells away
	indexed := p.media[0]
	src := p.radios[0][a]

	// The same source twice within one epoch: the second frame reuses the
	// list built by the first.
	p.send(a, 1)
	epoch := indexed.posEpoch
	if src.hearEpoch != epoch {
		t.Fatalf("hearer list of the source built for epoch %d, medium is at %d", src.hearEpoch, epoch)
	}
	p.send(a, 1)
	if indexed.posEpoch != epoch || src.hearEpoch != epoch {
		t.Fatal("a frame without a position change started a new epoch")
	}

	// Into range across cells, then out of range within the same cell:
	// only the epoch bump of RefreshPositions can catch the second move.
	p.move(c, geo.Point{X: 28, Y: 21})
	p.send(a, 1, 2)
	p.move(c, geo.Point{X: 29.9, Y: 29.9})
	p.send(a, 1)
	p.move(c, geo.Point{X: 28, Y: 21})
	p.move(b, geo.Point{X: 55, Y: 55})
	p.send(a, 2)

	// A killed radio stays on the list but hears nothing; revived and woken
	// it hears again, with no rebuild needed in between.
	p.each(c, func(r *Radio) error { r.Kill(); return nil })
	p.send(a)
	p.each(c, (*Radio).Revive)
	p.each(c, (*Radio).Wake)
	p.send(a, 2)

	// A radio attached after the source's list was built joins it.
	d := p.attach(geo.Point{X: 22, Y: 23})
	p.send(a, 2, 3)
	p.send(d, 0, 2)
	p.send(c, 0, 3)
}
