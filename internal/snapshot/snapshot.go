// Package snapshot defines the versioned, deterministic serialization of a
// complete simulation: the kernel's event queue positions and counters, the
// mobility ticker, the radio medium and its loss processes, every
// node's protocol/MAC/radio/energy state, the traffic and mobility
// processes, fault-injection progress, the metrics and invariant ledgers,
// telemetry counters, and all RNG stream positions.
//
// A snapshot is only taken at a quiescent instant — no frames in flight, no
// MAC exchange mid-flight, no start jitter pending — so in-flight state
// never needs serializing. Restoring a snapshot rebuilds the object graph
// from the embedded configuration and overlays this state; the continued
// run is bit-identical to one that never paused.
//
// The encoding is a fixed header (magic, version) followed by a gob stream.
// Every map-shaped structure is carried as a sorted slice, so encoding the
// same state twice yields identical bytes.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"dftmsn/internal/core"
	"dftmsn/internal/faults"
	"dftmsn/internal/invariants"
	"dftmsn/internal/metrics"
	"dftmsn/internal/mobility"
	"dftmsn/internal/radio"
	"dftmsn/internal/sim"
	"dftmsn/internal/simrand"
	"dftmsn/internal/telemetry"
)

// magic identifies a snapshot stream; Version is the format version. Any
// change to the state structs below is a format change and must bump
// Version — old snapshots are rejected, never misread.
const (
	magic   = "DFTMSNSNAP"
	Version = 3
)

// TrafficState is one sensor's Poisson arrival process: its RNG stream and
// the pending arrival event (nil once the process ended).
type TrafficState struct {
	RNG simrand.State
	Ev  *sim.EventRef
}

// TelemetryState carries the metrics registry values and the sampler's
// emitted rows; present only when the run has telemetry armed.
type TelemetryState struct {
	Registry telemetry.RegistryState
	Sampler  telemetry.SamplerState
}

// Snapshot is the complete state of a simulation at one quiescent instant.
// Config holds the canonical JSON of the scenario configuration (the same
// schema scenario.SaveConfig writes), so a snapshot is self-describing:
// restore rebuilds the object graph from it and overlays the state.
type Snapshot struct {
	// Time is the virtual-time instant the snapshot was taken at.
	Time float64
	// Config is the canonical JSON scenario configuration.
	Config []byte
	// Kernel is the scheduler's clock and counters.
	Kernel sim.KernelState
	// MobilityTick is the shared mobility ticker.
	MobilityTick sim.TickerState
	// Medium is the radio channel: counters, loss processes, pending burst
	// flip.
	Medium radio.MediumState
	// Nodes holds every node's state, sinks first then sensors, in ID
	// order — the order scenario construction creates them.
	Nodes []core.NodeState
	// Mobility is the zone-walk state of every walker.
	Mobility mobility.ZoneWalkState
	// Traffic holds the per-sensor Poisson arrival processes, in sensor
	// order.
	Traffic []TrafficState
	// NextMsgID is the last message ID handed out.
	NextMsgID uint64
	// Injector is the fault-injection progress; nil when the run has no
	// injector.
	Injector *faults.State
	// Collector is the per-message metrics ledger.
	Collector metrics.CollectorState
	// Invariants is the runtime invariant engine; nil when it is off.
	Invariants *invariants.EngineState
	// Telemetry is the metrics registry and sampler; nil when telemetry is
	// off.
	Telemetry *TelemetryState
}

// Encode writes the snapshot to w: magic, version, then the gob payload.
func Encode(w io.Writer, snap *Snapshot) error {
	if snap == nil {
		return errors.New("snapshot: nil snapshot")
	}
	if _, err := io.WriteString(w, magic); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	var ver [2]byte
	binary.BigEndian.PutUint16(ver[:], Version)
	if _, err := w.Write(ver[:]); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	return nil
}

// Decode reads a snapshot from r. Corrupted or truncated input returns an
// error — never a panic — and unknown versions are rejected.
func Decode(r io.Reader) (snap *Snapshot, err error) {
	// The gob decoder is driven by length fields from the input; hostile
	// input can trip internal panics. Contain them.
	defer func() {
		if p := recover(); p != nil {
			snap = nil
			err = fmt.Errorf("snapshot: corrupt input: %v", p)
		}
	}()
	head := make([]byte, len(magic)+2)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("snapshot: header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, errors.New("snapshot: bad magic; not a snapshot file")
	}
	if v := binary.BigEndian.Uint16(head[len(magic):]); v != Version {
		return nil, fmt.Errorf("snapshot: version %d, this build reads version %d", v, Version)
	}
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	return &s, nil
}

// EncodeBytes encodes the snapshot into a byte slice.
func EncodeBytes(snap *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeBytes decodes a snapshot from a byte slice.
func DecodeBytes(b []byte) (*Snapshot, error) {
	return Decode(bytes.NewReader(b))
}

// Save writes the snapshot to a file.
func Save(path string, snap *Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := Encode(f, snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Load reads a snapshot from a file.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	return Decode(f)
}
