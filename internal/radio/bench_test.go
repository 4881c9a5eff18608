package radio

import (
	"math"
	"testing"

	"dftmsn/internal/energy"
	"dftmsn/internal/geo"
	"dftmsn/internal/packet"
	"dftmsn/internal/sim"
	"dftmsn/internal/simrand"
)

// nopHandler discards all radio events.
type nopHandler struct{}

func (nopHandler) OnFrame(packet.Frame)  {}
func (nopHandler) OnCollision()          {}
func (nopHandler) OnTxDone(packet.Frame) {}
func (nopHandler) OnAwake()              {}

// benchMedium builds a medium with n radios spread uniformly over a field
// sized to keep the paper's density (one radio per 225 m², the §5 default
// of 100 nodes on 150×150 m²).
func benchMedium(b *testing.B, n int, linear bool) (*sim.Scheduler, *Medium, []*Radio) {
	return benchMediumOn(b, n, linear, nil)
}

// benchMediumOn is benchMedium whose radios, when table is non-nil (of
// length n), read their positions from it, so a benchmark can move them;
// otherwise each radio's position is a constant.
func benchMediumOn(b *testing.B, n int, linear bool, table []geo.Point) (*sim.Scheduler, *Medium, []*Radio) {
	b.Helper()
	sched := sim.NewScheduler()
	cfg := DefaultConfig()
	cfg.LinearScan = linear
	m, err := NewMedium(sched, cfg)
	if err != nil {
		b.Fatal(err)
	}
	field := benchField(n)
	rng := simrand.New(7)
	radios := make([]*Radio, n)
	for i := range radios {
		p := geo.Point{X: rng.Uniform(0, field), Y: rng.Uniform(0, field)}
		position := func() geo.Point { return p }
		if table != nil {
			table[i] = p
			position = func() geo.Point { return table[i] }
		}
		r, err := m.Attach(packet.NodeID(i), position, nopHandler{}, energy.BerkeleyMote(), Idle)
		if err != nil {
			b.Fatal(err)
		}
		radios[i] = r
	}
	return sched, m, radios
}

// benchField is the side of the square field that holds n radios at the
// paper's density.
func benchField(n int) float64 { return 15.0 * float64(intSqrt(n)) }

func intSqrt(n int) int {
	i := 1
	for i*i < n {
		i++
	}
	return i
}

// benchTransmitFinish measures one full frame lifetime — transmit (range
// query + reception starts) and finish (receiver release) — from a rotating
// set of senders.
func benchTransmitFinish(b *testing.B, n int, linear bool) {
	sched, _, radios := benchMedium(b, n, linear)
	pre := &packet.Preamble{From: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := radios[i%len(radios)]
		if err := r.Transmit(pre); err != nil {
			continue // sender mid-reception of the previous frame: skip
		}
		for sched.Step() {
		}
	}
}

func BenchmarkMediumTransmit100(b *testing.B)        { benchTransmitFinish(b, 100, false) }
func BenchmarkMediumTransmit100Linear(b *testing.B)  { benchTransmitFinish(b, 100, true) }
func BenchmarkMediumTransmit1000(b *testing.B)       { benchTransmitFinish(b, 1000, false) }
func BenchmarkMediumTransmit1000Linear(b *testing.B) { benchTransmitFinish(b, 1000, true) }

// BenchmarkMediumTransmit100Mobile is BenchmarkMediumTransmit100 with the
// radios moving: once every sender has put 20 frames on the air — about
// what one NOSLEEP sender sends per 1 s mobility tick — every radio steps
// to its next precomputed position and the medium is refreshed, so the
// first frame of each sender per tick rebuilds its hearer list and the
// other 19 reuse it.
func BenchmarkMediumTransmit100Mobile(b *testing.B) {
	const (
		n               = 100
		framesPerSender = 20
		ticks           = 16 // precomputed position sets, cycled
		step            = 5.0
	)
	pos := make([]geo.Point, n)
	sched, m, radios := benchMediumOn(b, n, false, pos)
	field := benchField(n)
	rng := simrand.New(11)
	tracks := make([][]geo.Point, ticks)
	prev := pos
	for k := range tracks {
		tracks[k] = make([]geo.Point, len(pos))
		for i, p := range prev {
			x := math.Min(math.Max(p.X+rng.Uniform(-step, step), 0), field)
			y := math.Min(math.Max(p.Y+rng.Uniform(-step, step), 0), field)
			tracks[k][i] = geo.Point{X: x, Y: y}
		}
		prev = tracks[k]
	}
	perTick := framesPerSender * len(radios)
	pre := &packet.Preamble{From: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perTick == 0 {
			copy(pos, tracks[(i/perTick)%ticks])
			m.RefreshPositions()
		}
		r := radios[i%len(radios)]
		if err := r.Transmit(pre); err != nil {
			continue // sender mid-reception of the previous frame: skip
		}
		for sched.Step() {
		}
	}
}

// benchBusy measures the carrier-sense query with frames in flight in
// proportion to the network size — the regime the index exists for, where
// the linear scan walks every active transmission on the whole field.
func benchBusy(b *testing.B, n int, linear bool) {
	sched, m, radios := benchMedium(b, n, linear)
	// Put spread-out frames on the air and keep them there: Data frames are
	// long (1000 bits = 0.1 s), so probe while they fly.
	want := n / 8
	onAir := 0
	for i := 0; i < len(radios) && onAir < want; i += len(radios)/want + 1 {
		if err := radios[i].Transmit(&packet.Data{From: radios[i].ID(), ID: 1}); err == nil {
			onAir++
		}
	}
	probe := radios[len(radios)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Busy(probe)
	}
	b.StopTimer()
	for sched.Step() {
	}
}

func BenchmarkMediumBusy1000(b *testing.B)       { benchBusy(b, 1000, false) }
func BenchmarkMediumBusy1000Linear(b *testing.B) { benchBusy(b, 1000, true) }

// BenchmarkRefreshPositions measures the per-mobility-tick index refresh
// (every radio checked, a fraction re-filed).
func BenchmarkRefreshPositions1000(b *testing.B) {
	_, m, _ := benchMedium(b, 1000, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RefreshPositions()
	}
}

var _ Handler = nopHandler{}
