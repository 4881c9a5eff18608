package scenario

import (
	"reflect"
	"testing"

	"dftmsn/internal/core"
	"dftmsn/internal/telemetry"
)

// TestTelemetryReport runs a small scenario with the telemetry layer armed
// and checks the metrics registry, the sampled series, and the trace-v2
// event stream against the run's digest.
func TestTelemetryReport(t *testing.T) {
	cfg := quickConfig(core.SchemeOPT)
	cfg.Telemetry = true
	buf := &telemetry.Buffer{}
	cfg.Recorder = buf
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Telemetry
	if rep == nil || rep.Run == nil {
		t.Fatal("no telemetry report")
	}
	m := rep.Run

	gen := m.EventCount(telemetry.EvGen) + m.EventCount(telemetry.EvGenDrop)
	if int(gen) != res.Delivery.Generated {
		t.Errorf("gen counters %v != generated %d", gen, res.Delivery.Generated)
	}
	if int(m.EventCount(telemetry.EvDeliver)) != res.Delivery.Delivered {
		t.Errorf("deliver counter %v != delivered %d", m.EventCount(telemetry.EvDeliver), res.Delivery.Delivered)
	}
	if m.DeliveryDelay.Count() != uint64(res.Delivery.Delivered) {
		t.Errorf("delay histogram n=%d != delivered %d", m.DeliveryDelay.Count(), res.Delivery.Delivered)
	}
	if got, want := m.DeliveryDelay.Mean(), res.Delivery.AvgDelaySeconds; res.Delivery.Delivered > 0 {
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("delay histogram mean %v != collector mean %v", got, want)
		}
	}
	if m.EventCount(telemetry.EvSleep) != float64(res.Sleeps) {
		t.Errorf("sleep counter %v != sleeps %d", m.EventCount(telemetry.EvSleep), res.Sleeps)
	}
	if m.Xi.Count() == 0 || m.QueueOccupancy.Count() == 0 {
		t.Error("periodic histograms not fed")
	}

	if rep.Series == nil || len(rep.Series.Samples) < 100 {
		t.Fatalf("series missing or short: %+v", rep.Series)
	}
	last := rep.Series.Samples[len(rep.Series.Samples)-1]
	if last.Time != res.SimSeconds {
		t.Errorf("final sample at %v, want %v", last.Time, res.SimSeconds)
	}

	// The typed stream agrees with the counters, and its provenance ledger
	// sees every delivery.
	var delivers int
	for _, ev := range buf.Events {
		if ev.Type == telemetry.EvDeliver {
			delivers++
			if ev.Value <= 0 {
				t.Errorf("deliver with non-positive delay: %+v", ev)
			}
		}
	}
	if delivers != res.Delivery.Delivered {
		t.Errorf("stream delivers %d != %d", delivers, res.Delivery.Delivered)
	}
	ledger := telemetry.BuildLedger(buf.Events)
	deliveredChains := 0
	for _, id := range ledger.IDs() {
		if ledger.Message(id).Delivered {
			deliveredChains++
		}
	}
	if deliveredChains != res.Delivery.Delivered {
		t.Errorf("ledger delivered %d != %d", deliveredChains, res.Delivery.Delivered)
	}
}

// TestTelemetryDoesNotPerturbRun locks in that attaching the full
// telemetry stack leaves the simulation byte-identical: observability must
// never change the physics.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	base, err := New(quickConfig(core.SchemeOPT))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	cfg := quickConfig(core.SchemeOPT)
	cfg.Telemetry = true
	buf := &telemetry.Buffer{}
	cfg.Recorder = buf
	traced, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	instr, err := traced.Run()
	if err != nil {
		t.Fatal(err)
	}

	if plain.Delivery != instr.Delivery {
		t.Errorf("delivery digest changed under telemetry:\n%+v\n%+v", plain.Delivery, instr.Delivery)
	}
	if plain.Events != instr.Events {
		t.Errorf("kernel events %d != %d", plain.Events, instr.Events)
	}
	if !reflect.DeepEqual(plain.Channel, instr.Channel) {
		t.Errorf("channel stats changed under telemetry")
	}
	if len(buf.Events) == 0 {
		t.Error("recorder received no events")
	}
	// The recorded stream must satisfy the node lifecycle rules.
	if vs := telemetry.Verify(buf.Events); len(vs) != 0 {
		t.Errorf("trace verify: %v", vs)
	}
}
