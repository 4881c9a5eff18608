package snapshot

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"dftmsn/internal/core"
	"dftmsn/internal/faults"
	"dftmsn/internal/mobility"
	"dftmsn/internal/radio"
	"dftmsn/internal/routing"
	"dftmsn/internal/sim"
	"dftmsn/internal/simrand"
)

// testSnapshot builds a synthetic but representative snapshot: pending event
// refs, RNG stream states, neighbour tables, fault progress.
func testSnapshot() *Snapshot {
	rng := simrand.New(42)
	return &Snapshot{
		Time:         123.456,
		Config:       []byte(`{"scheme":"OPT"}`),
		Kernel:       sim.KernelState{Now: 123.456, Seq: 9001, IsoSeq: 1 << 62, Fired: 8500, Scheduled: 9000, Elided: 250},
		MobilityTick: sim.TickerState{Active: true, Ev: &sim.EventRef{At: 124, Seq: 8999, Label: "wheel"}},
		Medium: radio.MediumState{
			Stats:   radio.StatsState{Collisions: 3, ControlBits: 1000},
			LossRNG: rng.State(),
		},
		Nodes: []core.NodeState{
			{
				ID:        0,
				Strategy:  routing.State{Kind: "sink", Delivered: 7},
				Neighbors: []core.NeighborState{{ID: 3, Xi: 0.5, SeenAt: 120}, {ID: 4, Xi: 0.25, SeenAt: 122}},
				RNG:       rng.State(),
				Started:   true,
				RetryEvs:  []*sim.EventRef{{At: 125, Seq: 8990}},
			},
			{
				ID:       3,
				Strategy: routing.State{Kind: "FAD", Xi: 0.4, TxEver: true},
				RNG:      rng.State(),
				Plan: &core.IdleSpanState{
					Starts:  []float64{124, 126},
					Listens: []float64{124.5, 126.5},
					Ends:    []float64{125, 127},
					Sigmas:  []int{3, 4},
					RNGSnap: rng.State(),
				},
				PlanEndEv: &sim.EventRef{At: 127, Seq: 8991, Label: "idle-span"},
			},
		},
		Mobility:  mobility.ZoneWalkState{},
		Traffic:   []TrafficState{{RNG: rng.State(), Ev: &sim.EventRef{At: 130, Seq: 8992}}, {RNG: rng.State()}},
		NextMsgID: 55,
		Injector: &faults.State{
			Armed:   true,
			Churned: []bool{false, true},
			Chains:  []faults.ChainState{{Victim: 1, Next: 1, RNG: rng.State(), Ev: &sim.EventRef{At: 140, Seq: 1<<62 + 3, Label: "fault-recover"}}},
			RNG:     rng.State(),
		},
	}
}

func TestEncodeDeterministic(t *testing.T) {
	snap := testSnapshot()
	a, err := EncodeBytes(snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeBytes(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("encoding the same snapshot twice produced different bytes")
	}
}

func TestRoundTrip(t *testing.T) {
	snap := testSnapshot()
	blob, err := EncodeBytes(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("round trip changed the snapshot:\nin:  %+v\nout: %+v", snap, got)
	}
	// Bit-identity through the codec: re-encoding the decoded snapshot must
	// reproduce the original bytes exactly.
	blob2, err := EncodeBytes(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoding a decoded snapshot changed the bytes")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	blob, err := EncodeBytes(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}

	// Truncations at every prefix length must error, never panic.
	for n := 0; n < len(blob); n += 1 + n/8 {
		if _, err := DecodeBytes(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xFF
	if _, err := DecodeBytes(bad); err == nil {
		t.Fatal("bad magic decoded without error")
	}
	// Unknown version.
	bad = append([]byte(nil), blob...)
	bad[len(magic)] = 0xFF
	if _, err := DecodeBytes(bad); err == nil {
		t.Fatal("unknown version decoded without error")
	}
	// Version 1 files carry the retired upkeep-wheel layout.
	bad = append([]byte(nil), blob...)
	bad[len(magic)], bad[len(magic)+1] = 0, 1
	if _, err := DecodeBytes(bad); err == nil {
		t.Fatal("version 1 snapshot decoded without error")
	}
	// Version 2 files carry one-shot kills as bare references.
	bad = append([]byte(nil), blob...)
	bad[len(magic)], bad[len(magic)+1] = 0, 2
	if _, err := DecodeBytes(bad); err == nil {
		t.Fatal("version 2 snapshot decoded without error")
	}
	// Flipped payload bytes: decode must return an error or a snapshot,
	// never panic.
	for i := len(magic) + 2; i < len(blob); i += 7 {
		bad = append([]byte(nil), blob...)
		bad[i] ^= 0x55
		_, _ = DecodeBytes(bad)
	}
}

func TestSaveLoad(t *testing.T) {
	snap := testSnapshot()
	path := filepath.Join(t.TempDir(), "snap.dft")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatal("file round trip changed the snapshot")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.dft")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// FuzzDecode hammers the codec with arbitrary input: Decode must return an
// error or a snapshot, and a successfully decoded snapshot must re-encode
// cleanly — never panic, never hang.
func FuzzDecode(f *testing.F) {
	blob, err := EncodeBytes(testSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Add([]byte("DFTMSNSNAP\x00\x01garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeBytes(data)
		if err != nil {
			return
		}
		if _, err := EncodeBytes(snap); err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
	})
}
