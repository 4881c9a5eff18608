package core

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"dftmsn/internal/energy"
	"dftmsn/internal/geo"
	"dftmsn/internal/mac"
	"dftmsn/internal/optimize"
	"dftmsn/internal/packet"
	"dftmsn/internal/radio"
	"dftmsn/internal/routing"
	"dftmsn/internal/sim"
	"dftmsn/internal/simrand"
)

func TestSchemeString(t *testing.T) {
	want := map[Scheme]string{
		SchemeOPT:      "OPT",
		SchemeNOOPT:    "NOOPT",
		SchemeNOSLEEP:  "NOSLEEP",
		SchemeZBR:      "ZBR",
		SchemeDirect:   "DIRECT",
		SchemeEpidemic: "EPIDEMIC",
	}
	for s, n := range want {
		if s.String() != n {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), n)
		}
		if !s.Valid() {
			t.Errorf("%v not valid", s)
		}
	}
	if Scheme(0).Valid() || Scheme(99).Valid() {
		t.Error("invalid scheme reported valid")
	}
	if Scheme(0).String() != "SCHEME(0)" {
		t.Errorf("unknown scheme string = %q", Scheme(0).String())
	}
	if len(Schemes()) != 4 || len(AllSchemes()) != 6 {
		t.Errorf("scheme lists: %d paper, %d all", len(Schemes()), len(AllSchemes()))
	}
}

func TestDefaultParamsPerScheme(t *testing.T) {
	opt := DefaultParams(SchemeOPT)
	if !opt.AdaptiveTau || !opt.AdaptiveWindow || !opt.AdaptiveSleep || !opt.SleepEnabled {
		t.Fatalf("OPT params not fully adaptive: %+v", opt)
	}
	noopt := DefaultParams(SchemeNOOPT)
	if noopt.AdaptiveTau || noopt.AdaptiveWindow || noopt.AdaptiveSleep {
		t.Fatalf("NOOPT params adaptive: %+v", noopt)
	}
	if !noopt.SleepEnabled {
		t.Fatal("NOOPT must still sleep (fixed period)")
	}
	nosleep := DefaultParams(SchemeNOSLEEP)
	if nosleep.SleepEnabled {
		t.Fatal("NOSLEEP params enable sleeping")
	}
	if !nosleep.AdaptiveTau || !nosleep.AdaptiveWindow {
		t.Fatal("NOSLEEP must keep the MAC optimizations")
	}
	zbr := DefaultParams(SchemeZBR)
	if !zbr.AdaptiveTau || !zbr.AdaptiveWindow {
		t.Fatal("ZBR must keep OPT's MAC optimizations")
	}
	if zbr.AdaptiveSleep {
		t.Fatal("ZBR's sleep period is fixed (the Eq. 6 optimization is FTD-coupled)")
	}
	for _, s := range AllSchemes() {
		if err := DefaultParams(s).Validate(); err != nil {
			t.Errorf("DefaultParams(%v) invalid: %v", s, err)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams(SchemeOPT)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Params){
		func(p *Params) { p.TauMaxFixed = 0 },
		func(p *Params) { p.WindowCap = 0 },
		func(p *Params) { p.CollisionTarget = 0 },
		func(p *Params) { p.CollisionTarget = 1 },
		func(p *Params) { p.NeighborTTL = 0 },
		func(p *Params) { p.DecayInterval = -1 },
		func(p *Params) { p.Sleep.S = 0 },
		func(p *Params) { p.AdaptiveSleep = false; p.SleepFixed = 0 },
	}
	for i, m := range muts {
		p := DefaultParams(SchemeOPT)
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, p)
		}
	}
	// Sleep config is only validated when sleeping is enabled.
	p := DefaultParams(SchemeNOSLEEP)
	p.Sleep.S = 0
	if err := p.Validate(); err != nil {
		t.Errorf("sleep-disabled params rejected: %v", err)
	}
}

func TestNewStrategyPerScheme(t *testing.T) {
	isSink := func(id packet.NodeID) bool { return id == 0 }
	names := map[Scheme]string{
		SchemeOPT:      "FAD",
		SchemeNOOPT:    "FAD",
		SchemeNOSLEEP:  "FAD",
		SchemeZBR:      "ZBR",
		SchemeDirect:   "DIRECT",
		SchemeEpidemic: "EPIDEMIC",
	}
	for s, want := range names {
		st, err := NewStrategy(s, 5, 100, isSink, StrategyOverrides{})
		if err != nil {
			t.Fatalf("NewStrategy(%v): %v", s, err)
		}
		if st.Name() != want {
			t.Errorf("NewStrategy(%v).Name() = %q, want %q", s, st.Name(), want)
		}
		if st.QueueCap() != 100 {
			t.Errorf("NewStrategy(%v) queue cap %d, want 100", s, st.QueueCap())
		}
	}
	if _, err := NewStrategy(Scheme(0), 5, 100, isSink, StrategyOverrides{}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// miniNet builds one sensor next to one sink on a shared medium.
type miniNet struct {
	sched     *sim.Scheduler
	sensor    *Node
	sink      *Node
	delivered []packet.MessageID
}

func newMiniNet(t *testing.T, sensorParams Params) *miniNet {
	t.Helper()
	m := &miniNet{sched: sim.NewScheduler()}
	med, err := radio.NewMedium(m.sched, radio.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	macCfg := mac.DefaultConfig(med.AirTime(&packet.Preamble{}))
	isSink := func(id packet.NodeID) bool { return id == 0 }

	sinkStrat, err := routing.NewSink(0, m.sched.Now, func(d *packet.Data, _ float64) {
		m.delivered = append(m.delivered, d.ID)
	})
	if err != nil {
		t.Fatal(err)
	}
	sinkParams := sensorParams
	sinkParams.SleepEnabled = false
	m.sink, err = NewNode(0, m.sched, med, macCfg, sinkParams, sinkStrat,
		func() geo.Point { return geo.Point{X: 0, Y: 0} }, energy.BerkeleyMote(),
		simrand.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}

	strat, err := NewStrategy(SchemeOPT, 1, 50, isSink, StrategyOverrides{})
	if err != nil {
		t.Fatal(err)
	}
	m.sensor, err = NewNode(1, m.sched, med, macCfg, sensorParams, strat,
		func() geo.Point { return geo.Point{X: 5, Y: 0} }, energy.BerkeleyMote(),
		simrand.New(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNodeDeliversToSink(t *testing.T) {
	net := newMiniNet(t, DefaultParams(SchemeOPT))
	if err := net.sink.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net.sensor.Start(); err != nil {
		t.Fatal(err)
	}
	if !net.sensor.Generate(1001, 1000) {
		t.Fatal("Generate failed")
	}
	if err := net.sched.Run(60); err != nil {
		t.Fatal(err)
	}
	if len(net.delivered) != 1 || net.delivered[0] != 1001 {
		t.Fatalf("delivered = %v, want [1001]", net.delivered)
	}
	// After sink delivery the copy is dropped (FTD 1 > threshold).
	if net.sensor.Strategy().QueueLen() != 0 {
		t.Fatal("sensor kept the delivered message")
	}
	// The sensor's xi rose via the sink contact.
	if net.sensor.Strategy().Xi() <= 0 {
		t.Fatal("sensor xi did not rise after sink contact")
	}
}

func TestNodeSleepsWhenIdle(t *testing.T) {
	net := newMiniNet(t, DefaultParams(SchemeOPT))
	if err := net.sensor.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net.sink.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net.sched.Run(120); err != nil {
		t.Fatal(err)
	}
	st := net.sensor.Stats()
	if st.Sleeps == 0 {
		t.Fatal("idle sensor never slept")
	}
	meter := net.sensor.Radio().Meter()
	duty := meter.DutyCycle(net.sched.Now())
	if duty > 0.5 {
		t.Fatalf("idle sensor duty cycle %v, want mostly asleep", duty)
	}
	// The sink must never sleep.
	if net.sink.Stats().Sleeps != 0 {
		t.Fatal("sink slept")
	}
	if sinkDuty := net.sink.Radio().Meter().DutyCycle(net.sched.Now()); sinkDuty < 0.99 {
		t.Fatalf("sink duty cycle %v, want always-on", sinkDuty)
	}
}

// TestIdleSpanPlanStorage pins where the idle-span plan's storage comes
// from: made at the first plan, sized to the node's bound (the sleep
// threshold L for a sleeping sensor, the cycle cap for an always-on sink),
// and never made for a node that cannot elide.
func TestIdleSpanPlanStorage(t *testing.T) {
	params := DefaultParams(SchemeOPT)
	net := newMiniNet(t, params)
	if net.sensor.plan.cycles != nil || net.sink.plan.cycles != nil {
		t.Fatal("NewNode made idle-span plan storage")
	}
	if err := net.sensor.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net.sink.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net.sched.Run(120); err != nil {
		t.Fatal(err)
	}
	if got, want := cap(net.sensor.plan.cycles), min(planMaxCycles, params.Sleep.L); got != want {
		t.Errorf("sensor plan capacity %d, want %d (L = %d)", got, want, params.Sleep.L)
	}
	if got := cap(net.sink.plan.cycles); got != planMaxCycles {
		t.Errorf("sink plan capacity %d, want %d", got, planMaxCycles)
	}

	params.BatteryJoules = 1e6 // a battery bound disables elision
	bounded := newMiniNet(t, params)
	if err := bounded.sensor.Start(); err != nil {
		t.Fatal(err)
	}
	if err := bounded.sched.Run(120); err != nil {
		t.Fatal(err)
	}
	if bounded.sensor.plan.cycles != nil {
		t.Error("a node that cannot elide made idle-span plan storage")
	}
}

func TestNoSleepNodeStaysAwake(t *testing.T) {
	net := newMiniNet(t, DefaultParams(SchemeNOSLEEP))
	if err := net.sensor.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net.sink.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net.sched.Run(60); err != nil {
		t.Fatal(err)
	}
	if net.sensor.Stats().Sleeps != 0 {
		t.Fatal("NOSLEEP sensor slept")
	}
	if duty := net.sensor.Radio().Meter().DutyCycle(net.sched.Now()); duty < 0.99 {
		t.Fatalf("NOSLEEP duty cycle %v", duty)
	}
}

func TestNodeStartGuards(t *testing.T) {
	net := newMiniNet(t, DefaultParams(SchemeOPT))
	if err := net.sensor.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net.sensor.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
}

func TestNodeStopHaltsCycles(t *testing.T) {
	net := newMiniNet(t, DefaultParams(SchemeOPT))
	if err := net.sensor.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net.sched.Run(10); err != nil {
		t.Fatal(err)
	}
	net.sensor.Stop()
	if err := net.sched.Run(30); err != nil {
		t.Fatal(err)
	}
	// After the queue of scheduled work drains, no new cycles appear: the
	// engine must not be mid-cycle at the end.
	if net.sensor.Engine().InCycle() {
		t.Fatal("engine still cycling after Stop")
	}
	cyclesAtStop := net.sensor.Engine().Stats().Cycles
	if err := net.sched.Run(60); err != nil {
		t.Fatal(err)
	}
	if got := net.sensor.Engine().Stats().Cycles; got != cyclesAtStop {
		t.Fatalf("cycles advanced from %d to %d after Stop", cyclesAtStop, got)
	}
}

func TestNodeConstructorValidation(t *testing.T) {
	sched := sim.NewScheduler()
	med, err := radio.NewMedium(sched, radio.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	macCfg := mac.DefaultConfig(med.AirTime(&packet.Preamble{}))
	pos := func() geo.Point { return geo.Point{} }
	strat, err := NewStrategy(SchemeOPT, 1, 10, func(packet.NodeID) bool { return false }, StrategyOverrides{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(1, sched, med, macCfg, DefaultParams(SchemeOPT), nil, pos, energy.BerkeleyMote(), simrand.New(1), nil); err == nil {
		t.Error("nil strategy accepted")
	}
	if _, err := NewNode(1, sched, med, macCfg, DefaultParams(SchemeOPT), strat, pos, energy.BerkeleyMote(), nil, nil); err == nil {
		t.Error("nil rng accepted")
	}
	bad := DefaultParams(SchemeOPT)
	bad.NeighborTTL = -1
	if _, err := NewNode(1, sched, med, macCfg, bad, strat, pos, energy.BerkeleyMote(), simrand.New(1), nil); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestBatteryExhaustionKillsNode(t *testing.T) {
	params := DefaultParams(SchemeNOSLEEP) // always-on burns fastest
	// 13.5 mW listening: 0.1 J lasts ~7.4 s.
	params.BatteryJoules = 0.1
	net := newMiniNet(t, params)
	if err := net.sensor.Start(); err != nil {
		t.Fatal(err)
	}
	if !net.sensor.Alive() {
		t.Fatal("node born dead")
	}
	if err := net.sched.Run(60); err != nil {
		t.Fatal(err)
	}
	if net.sensor.Alive() {
		t.Fatal("node survived its battery")
	}
	died := net.sensor.Stats().DiedAt
	if died < 5 || died > 15 {
		t.Fatalf("died at %v, want ~7.4 s", died)
	}
	// After death no further cycles run.
	cycles := net.sensor.Engine().Stats().Cycles
	if err := net.sched.Run(120); err != nil {
		t.Fatal(err)
	}
	if got := net.sensor.Engine().Stats().Cycles; got != cycles {
		t.Fatalf("dead node kept cycling: %d -> %d", cycles, got)
	}
	// The sink, with no budget, stays alive.
	if !net.sink.Alive() {
		t.Fatal("unlimited-budget sink died")
	}
	// Battery death is down for good: there was no crash to recover from.
	if err := net.sensor.Recover(false); err == nil {
		t.Fatal("Recover of a battery-dead node accepted")
	}
}

func TestKillMidCycleAbortsEngine(t *testing.T) {
	net := newMiniNet(t, DefaultParams(SchemeNOSLEEP))
	if err := net.sensor.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net.sink.Start(); err != nil {
		t.Fatal(err)
	}
	net.sensor.Generate(500, 1000)
	// Kill (a crash that never recovers) at an arbitrary instant: whatever
	// phase the engine is in, the node must end up dead with the engine
	// idle and no further events.
	net.sched.After(2.345, func() { net.sensor.Crash(true) })
	if err := net.sched.Run(30); err != nil {
		t.Fatal(err)
	}
	if net.sensor.Alive() {
		t.Fatal("killed node alive")
	}
	if net.sensor.Engine().InCycle() {
		t.Fatal("engine still mid-cycle after Kill")
	}
	cycles := net.sensor.Engine().Stats().Cycles
	if err := net.sched.Run(60); err != nil {
		t.Fatal(err)
	}
	if net.sensor.Engine().Stats().Cycles != cycles {
		t.Fatal("dead node kept cycling")
	}
	// A second crash is a no-op and Generate on a dead node is harmless.
	if lost := net.sensor.Crash(true); lost != nil {
		t.Fatalf("Crash of a dead node wiped %v", lost)
	}
	net.sensor.Generate(501, 1000)
}

func TestCrashAndRecoverResumesDelivery(t *testing.T) {
	net := newMiniNet(t, DefaultParams(SchemeNOSLEEP))
	if err := net.sink.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net.sensor.Start(); err != nil {
		t.Fatal(err)
	}
	// Crash with an undelivered message in the queue: the copy dies too.
	net.sched.After(0.5, func() {
		net.sensor.Generate(700, 1000)
		lost := net.sensor.Crash(true)
		if len(lost) != 1 || lost[0] != 700 {
			t.Errorf("crash wiped %v, want [700]", lost)
		}
		if net.sensor.Alive() {
			t.Error("crashed node alive")
		}
		if net.sensor.Engine().InCycle() {
			t.Error("engine still mid-cycle after crash")
		}
	})
	net.sched.After(5, func() {
		if err := net.sensor.Recover(true); err != nil {
			t.Errorf("Recover: %v", err)
		}
	})
	// A fresh message after the reboot must reach the sink.
	net.sched.After(10, func() {
		if !net.sensor.Generate(701, 1000) {
			t.Error("post-recovery Generate failed")
		}
	})
	if err := net.sched.Run(60); err != nil {
		t.Fatal(err)
	}
	if !net.sensor.Alive() {
		t.Fatal("recovered node not alive")
	}
	st := net.sensor.Stats()
	if st.Crashes != 1 || st.Recoveries != 1 {
		t.Fatalf("stats %+v, want one crash and one recovery", st)
	}
	if len(net.delivered) != 1 || net.delivered[0] != 701 {
		t.Fatalf("delivered %v, want [701]: the wiped copy must die, the new one arrive", net.delivered)
	}
}

func TestCrashPreservingBufferDeliversAfterReboot(t *testing.T) {
	net := newMiniNet(t, DefaultParams(SchemeNOSLEEP))
	if err := net.sink.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net.sensor.Start(); err != nil {
		t.Fatal(err)
	}
	net.sched.After(0.5, func() {
		net.sensor.Generate(800, 1000)
		if lost := net.sensor.Crash(false); lost != nil {
			t.Errorf("preserving crash reported losses: %v", lost)
		}
		if got := net.sensor.Strategy().QueueLen(); got != 1 {
			t.Errorf("queue len %d after preserving crash, want 1", got)
		}
	})
	net.sched.After(5, func() {
		if err := net.sensor.Recover(false); err != nil {
			t.Errorf("Recover: %v", err)
		}
	})
	if err := net.sched.Run(60); err != nil {
		t.Fatal(err)
	}
	if len(net.delivered) != 1 || net.delivered[0] != 800 {
		t.Fatalf("delivered %v, want the preserved copy [800]", net.delivered)
	}
}

func TestRecoverGuards(t *testing.T) {
	net := newMiniNet(t, DefaultParams(SchemeOPT))
	if err := net.sensor.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net.sensor.Recover(false); err == nil {
		t.Fatal("Recover of a live node accepted")
	}
	// Crash on an already-crashed node is a no-op.
	net.sensor.Crash(true)
	if lost := net.sensor.Crash(true); lost != nil {
		t.Fatalf("Crash of a dead node wiped %v", lost)
	}
	if got := net.sensor.Stats().Crashes; got != 1 {
		t.Fatalf("Crash of a dead node counted: %d crashes", got)
	}
}

func TestBatteryDeadNodeCannotReboot(t *testing.T) {
	params := DefaultParams(SchemeNOSLEEP)
	params.BatteryJoules = 0.1
	net := newMiniNet(t, params)
	if err := net.sensor.Start(); err != nil {
		t.Fatal(err)
	}
	// Crash before exhaustion, then try to reboot after the budget is spent
	// anyway (the crash froze the meter; drain it first).
	if err := net.sched.Run(5); err != nil {
		t.Fatal(err)
	}
	net.sensor.Crash(true)
	if err := net.sched.Run(60); err != nil {
		t.Fatal(err)
	}
	if err := net.sensor.Recover(false); err != nil {
		// Either outcome is legitimate depending on how much was burnt
		// before the crash; what matters is that a recover after true
		// exhaustion fails. Force the exhausted case below.
		t.Logf("recover refused: %v", err)
	}
	// Battery death through normal operation is final.
	net2 := newMiniNet(t, params)
	if err := net2.sensor.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net2.sched.Run(60); err != nil {
		t.Fatal(err)
	}
	if net2.sensor.Alive() {
		t.Fatal("node survived its battery")
	}
	if err := net2.sensor.Recover(false); err == nil {
		t.Fatal("battery-dead node rebooted")
	}
}

func TestCrashBeforeStartBootsOnRecover(t *testing.T) {
	net := newMiniNet(t, DefaultParams(SchemeNOSLEEP))
	if err := net.sink.Start(); err != nil {
		t.Fatal(err)
	}
	// Crash before the node's (jittered) Start fires.
	net.sensor.Crash(true)
	if err := net.sensor.Start(); err != nil {
		t.Fatalf("Start of a crashed node: %v", err)
	}
	if err := net.sched.Run(5); err != nil {
		t.Fatal(err)
	}
	if net.sensor.Engine().Stats().Cycles != 0 {
		t.Fatal("crashed node cycled before recovery")
	}
	if err := net.sensor.Recover(false); err != nil {
		t.Fatal(err)
	}
	net.sched.After(1, func() { net.sensor.Generate(900, 1000) })
	if err := net.sched.Run(60); err != nil {
		t.Fatal(err)
	}
	if len(net.delivered) != 1 || net.delivered[0] != 900 {
		t.Fatalf("delivered %v, want [900] after late boot", net.delivered)
	}
}

func TestUnlimitedBatteryNeverDies(t *testing.T) {
	net := newMiniNet(t, DefaultParams(SchemeNOSLEEP))
	if err := net.sensor.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net.sched.Run(120); err != nil {
		t.Fatal(err)
	}
	if !net.sensor.Alive() {
		t.Fatal("unlimited node died")
	}
	if net.sensor.Stats().DiedAt >= 0 {
		t.Fatal("DiedAt set for living node")
	}
}

func TestNegativeBatteryRejected(t *testing.T) {
	p := DefaultParams(SchemeOPT)
	p.BatteryJoules = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative battery accepted")
	}
}

func TestAdaptiveWindowGrowsWithNeighbors(t *testing.T) {
	net := newMiniNet(t, DefaultParams(SchemeOPT))
	n := net.sensor
	// No neighbours known: minimum window.
	_, _, w0, _ := n.SenderParams()
	if w0 != 1 {
		t.Fatalf("window with no neighbours = %d, want 1", w0)
	}
	// Learn several higher-xi neighbours: the Eq. 14 window must grow.
	for i := 10; i < 15; i++ {
		n.OnNeighborInfo(packet.NodeID(i), 0.9, 0)
	}
	_, _, w5, _ := n.SenderParams()
	if w5 <= w0 {
		t.Fatalf("window did not grow with neighbours: %d -> %d", w0, w5)
	}
}

func TestNeighborTTLExpiry(t *testing.T) {
	net := newMiniNet(t, DefaultParams(SchemeOPT))
	n := net.sensor
	for i := 10; i < 15; i++ {
		n.OnNeighborInfo(packet.NodeID(i), 0.9, 0)
	}
	_, _, wFresh, _ := n.SenderParams()
	if wFresh <= 1 {
		t.Fatalf("window %d with 5 fresh neighbours", wFresh)
	}
	// Let the entries age past the TTL (no radio traffic refreshes them).
	ttl := DefaultParams(SchemeOPT).NeighborTTL
	net.sched.After(ttl+1, func() {
		_, _, wStale, _ := n.SenderParams()
		if wStale != 1 {
			t.Errorf("window %d after TTL expiry, want 1", wStale)
		}
	})
	if err := net.sched.Run(ttl + 5); err != nil {
		t.Fatal(err)
	}
}

func TestTauMaxCacheInvalidation(t *testing.T) {
	net := newMiniNet(t, DefaultParams(SchemeOPT))
	n := net.sensor
	// With no neighbours the Eq. 13 search returns the 1-slot minimum.
	if tau := n.currentTauMax(); tau != 1 {
		t.Fatalf("tau with no neighbours = %d, want 1", tau)
	}
	// New gossip must invalidate the cache and enlarge tau_max.
	for i := 10; i < 14; i++ {
		n.OnNeighborInfo(packet.NodeID(i), 0.5+float64(i-10)*0.1, 0)
	}
	tau2 := n.currentTauMax()
	if tau2 <= 1 {
		t.Fatalf("tau did not grow with contenders: %d", tau2)
	}
	// Unchanged table: the cached value is reused (same answer).
	if tau3 := n.currentTauMax(); tau3 != tau2 {
		t.Fatalf("cache returned %d, want %d", tau3, tau2)
	}
}

// TestWindowMemoMatchesSearch checks the per-node Eq. 14 memo against a
// fresh optimize.MinWindow for every replier count up to WindowCap (and a
// few past it), asked in scrambled order so the memo grows out of order,
// then asked again so every answer comes from the memo.
func TestWindowMemoMatchesSearch(t *testing.T) {
	for _, target := range []float64{0.01, 0.1, 0.5, 0.99} {
		p := DefaultParams(SchemeOPT)
		p.CollisionTarget = target
		n := newMiniNet(t, p).sensor
		cap_ := p.WindowCap
		order := rand.New(rand.NewPCG(uint64(target*1000), 1)).Perm(cap_ + 4)
		for pass := 0; pass < 2; pass++ {
			for _, k := range order {
				want, _ := optimize.MinWindow(k, target, cap_)
				if got := n.windowFor(k); got != want {
					t.Fatalf("target %v pass %d: window for %d repliers = %d, MinWindow %d", target, pass, k, got, want)
				}
			}
		}
	}
}

// TestNeighborTableSnapshotOrder checks the neighbour table's snapshot
// form: entries arrive in gossip order and update in place, the snapshot
// lists them by ID, a restore reproduces them, and a restore refuses a list
// out of ID order (which would otherwise hold one ID twice).
func TestNeighborTableSnapshotOrder(t *testing.T) {
	n := newMiniNet(t, DefaultParams(SchemeOPT)).sensor
	for _, id := range []packet.NodeID{12, 10, 11} {
		n.OnNeighborInfo(id, 0.5, 0)
	}
	n.OnNeighborInfo(10, 0.6, 0.2)
	st, err := n.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	want := []NeighborState{{ID: 10, Xi: 0.6, History: 0.2}, {ID: 11, Xi: 0.5}, {ID: 12, Xi: 0.5}}
	if !reflect.DeepEqual(st.Neighbors, want) || st.NbVersion != 4 {
		t.Fatalf("snapshot table %+v version %d, want %+v version 4", st.Neighbors, st.NbVersion, want)
	}

	fresh := newMiniNet(t, DefaultParams(SchemeOPT)).sensor
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	back, err := fresh.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Neighbors, want) {
		t.Fatalf("restored table %+v, want %+v", back.Neighbors, want)
	}

	st.Neighbors = []NeighborState{{ID: 11, Xi: 0.5}, {ID: 11, Xi: 0.7}}
	if err := newMiniNet(t, DefaultParams(SchemeOPT)).sensor.RestoreState(st); err == nil {
		t.Fatal("restore accepted a neighbour table listing one ID twice")
	}
}

func TestFixedParametersIgnoreNeighbors(t *testing.T) {
	net := newMiniNet(t, DefaultParams(SchemeNOOPT))
	n := net.sensor
	for i := 10; i < 20; i++ {
		n.OnNeighborInfo(packet.NodeID(i), 0.9, 0)
	}
	_, _, w, _ := n.SenderParams()
	if w != DefaultParams(SchemeNOOPT).WindowFixed {
		t.Fatalf("NOOPT window = %d, want fixed %d", w, DefaultParams(SchemeNOOPT).WindowFixed)
	}
}
