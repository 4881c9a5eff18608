package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"dftmsn/internal/core"
	"dftmsn/internal/faults"
)

// fileConfig is the JSON mirror of Config: the serialisable subset (no
// recorders, probes, or parameter pointers), with the scheme by name.
// Zero-valued fields inherit the paper defaults for the chosen scheme,
// so a config file only states its deviations.
type fileConfig struct {
	Scheme              string       `json:"scheme"`
	NumSensors          int          `json:"sensors,omitempty"`
	NumSinks            int          `json:"sinks,omitempty"`
	FieldSize           float64      `json:"field_size_m,omitempty"`
	ZonesPerSide        int          `json:"zones_per_side,omitempty"`
	MaxSpeed            float64      `json:"max_speed_mps,omitempty"`
	ExitProb            float64      `json:"exit_prob,omitempty"`
	RangeM              float64      `json:"range_m,omitempty"`
	BitrateBps          float64      `json:"bitrate_bps,omitempty"`
	ControlBits         int          `json:"control_bits,omitempty"`
	DataBits            int          `json:"data_bits,omitempty"`
	QueueCapacity       int          `json:"queue_capacity,omitempty"`
	ArrivalMeanSeconds  float64      `json:"arrival_mean_s,omitempty"`
	DurationSeconds     float64      `json:"duration_s,omitempty"`
	TrafficStopSeconds  float64      `json:"traffic_stop_s,omitempty"`
	MobilityTickSeconds float64      `json:"mobility_tick_s,omitempty"`
	BatteryJoules       float64      `json:"battery_j,omitempty"`
	MobileSinks         bool         `json:"mobile_sinks,omitempty"`
	LossProb            float64      `json:"loss_prob,omitempty"`
	FailFraction        float64      `json:"fail_fraction,omitempty"`
	FailAtSeconds       float64      `json:"fail_at_s,omitempty"`
	Faults              *faults.Plan `json:"faults,omitempty"`
	Seed                uint64       `json:"seed,omitempty"`
	LinearMedium        bool         `json:"linear_medium,omitempty"`
	EagerDecay          bool         `json:"eager_decay,omitempty"`
	DeliveryThreshold   float64      `json:"delivery_threshold,omitempty"`
	DropThreshold       float64      `json:"drop_threshold,omitempty"`
	Invariants          string       `json:"invariants,omitempty"`
	InjectSkipSenderFTD bool         `json:"inject_skip_sender_ftd,omitempty"`
	Telemetry           bool         `json:"telemetry,omitempty"`
	Params              *core.Params `json:"params,omitempty"`
	CheckpointEvery     float64      `json:"checkpoint_every_s,omitempty"`
}

// ParseScheme resolves a scheme by its paper name (case-insensitive).
func ParseScheme(name string) (core.Scheme, error) {
	for _, s := range core.AllSchemes() {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown scheme %q", name)
}

// LoadConfig reads a JSON configuration: the scheme name is required, and
// every other field defaults to the paper's value for that scheme. Unknown
// fields are rejected to catch typos.
func LoadConfig(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var fc fileConfig
	if err := dec.Decode(&fc); err != nil {
		return Config{}, fmt.Errorf("scenario: config: %w", err)
	}
	scheme, err := ParseScheme(fc.Scheme)
	if err != nil {
		return Config{}, err
	}
	cfg := DefaultConfig(scheme)
	if fc.NumSensors != 0 {
		cfg.NumSensors = fc.NumSensors
	}
	if fc.NumSinks != 0 {
		cfg.NumSinks = fc.NumSinks
	}
	if fc.FieldSize != 0 {
		cfg.FieldSize = fc.FieldSize
	}
	if fc.ZonesPerSide != 0 {
		cfg.ZonesPerSide = fc.ZonesPerSide
	}
	if fc.MaxSpeed != 0 {
		cfg.MaxSpeed = fc.MaxSpeed
	}
	if fc.ExitProb != 0 {
		cfg.ExitProb = fc.ExitProb
	}
	if fc.RangeM != 0 {
		cfg.RangeM = fc.RangeM
	}
	if fc.BitrateBps != 0 {
		cfg.BitrateBps = fc.BitrateBps
	}
	if fc.ControlBits != 0 {
		cfg.ControlBits = fc.ControlBits
	}
	if fc.DataBits != 0 {
		cfg.DataBits = fc.DataBits
	}
	if fc.QueueCapacity != 0 {
		cfg.QueueCapacity = fc.QueueCapacity
	}
	if fc.ArrivalMeanSeconds != 0 {
		cfg.ArrivalMeanSeconds = fc.ArrivalMeanSeconds
	}
	if fc.DurationSeconds != 0 {
		cfg.DurationSeconds = fc.DurationSeconds
	}
	cfg.TrafficStopSeconds = fc.TrafficStopSeconds
	if fc.MobilityTickSeconds != 0 {
		cfg.MobilityTickSeconds = fc.MobilityTickSeconds
	}
	cfg.BatteryJoules = fc.BatteryJoules
	cfg.MobileSinks = fc.MobileSinks
	cfg.LossProb = fc.LossProb
	cfg.FailFraction = fc.FailFraction
	cfg.FailAtSeconds = fc.FailAtSeconds
	cfg.Faults = fc.Faults
	if fc.Seed != 0 {
		cfg.Seed = fc.Seed
	}
	cfg.LinearMedium = fc.LinearMedium
	cfg.EagerDecay = fc.EagerDecay
	cfg.DeliveryThreshold = fc.DeliveryThreshold
	cfg.DropThreshold = fc.DropThreshold
	cfg.Invariants = fc.Invariants
	cfg.InjectSkipSenderFTD = fc.InjectSkipSenderFTD
	cfg.Telemetry = fc.Telemetry
	cfg.Params = fc.Params
	cfg.CheckpointEvery = fc.CheckpointEvery
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// SaveConfig writes the serialisable subset of cfg as indented JSON.
func SaveConfig(w io.Writer, cfg Config) error {
	fc := fileConfig{
		Scheme:              cfg.Scheme.String(),
		NumSensors:          cfg.NumSensors,
		NumSinks:            cfg.NumSinks,
		FieldSize:           cfg.FieldSize,
		ZonesPerSide:        cfg.ZonesPerSide,
		MaxSpeed:            cfg.MaxSpeed,
		ExitProb:            cfg.ExitProb,
		RangeM:              cfg.RangeM,
		BitrateBps:          cfg.BitrateBps,
		ControlBits:         cfg.ControlBits,
		DataBits:            cfg.DataBits,
		QueueCapacity:       cfg.QueueCapacity,
		ArrivalMeanSeconds:  cfg.ArrivalMeanSeconds,
		DurationSeconds:     cfg.DurationSeconds,
		TrafficStopSeconds:  cfg.TrafficStopSeconds,
		MobilityTickSeconds: cfg.MobilityTickSeconds,
		BatteryJoules:       cfg.BatteryJoules,
		MobileSinks:         cfg.MobileSinks,
		LossProb:            cfg.LossProb,
		FailFraction:        cfg.FailFraction,
		FailAtSeconds:       cfg.FailAtSeconds,
		Faults:              cfg.Faults,
		Seed:                cfg.Seed,
		LinearMedium:        cfg.LinearMedium,
		EagerDecay:          cfg.EagerDecay,
		DeliveryThreshold:   cfg.DeliveryThreshold,
		DropThreshold:       cfg.DropThreshold,
		Invariants:          cfg.Invariants,
		InjectSkipSenderFTD: cfg.InjectSkipSenderFTD,
		Telemetry:           cfg.Telemetry,
		Params:              cfg.Params,
		CheckpointEvery:     cfg.CheckpointEvery,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fc)
}

// EncodeConfig returns the canonical JSON of the serialisable subset of cfg
// — what a snapshot embeds to make itself self-describing.
func EncodeConfig(cfg Config) ([]byte, error) {
	var buf bytes.Buffer
	if err := SaveConfig(&buf, cfg); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeConfig parses a configuration produced by EncodeConfig. Runtime-only
// attachments (recorders, cancellation and progress probes) are not part
// of the encoding; reattach them after decoding.
func DecodeConfig(b []byte) (Config, error) {
	return LoadConfig(bytes.NewReader(b))
}
