package scenario

import (
	"reflect"
	"strings"
	"testing"

	"dftmsn/internal/core"
	"dftmsn/internal/faults"
)

func TestLoadConfigDefaults(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{"scheme": "opt"}`))
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig(core.SchemeOPT)
	if cfg.NumSensors != want.NumSensors || cfg.DurationSeconds != want.DurationSeconds {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.Scheme != core.SchemeOPT {
		t.Fatalf("scheme %v", cfg.Scheme)
	}
}

func TestLoadConfigOverrides(t *testing.T) {
	doc := `{
		"scheme": "ZBR",
		"sensors": 42,
		"sinks": 2,
		"duration_s": 1234,
		"loss_prob": 0.1,
		"faults": {"kills": [{"at_s": 500, "fraction": 0.2}]},
		"mobile_sinks": true,
		"seed": 99
	}`
	cfg, err := LoadConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheme != core.SchemeZBR || cfg.NumSensors != 42 || cfg.NumSinks != 2 {
		t.Fatalf("cfg %+v", cfg)
	}
	if cfg.DurationSeconds != 1234 || cfg.LossProb != 0.1 || !cfg.MobileSinks {
		t.Fatalf("cfg %+v", cfg)
	}
	if k := cfg.Faults.Kills; len(k) != 1 || k[0].Fraction != 0.2 || k[0].AtSeconds != 500 || cfg.Seed != 99 {
		t.Fatalf("cfg %+v", cfg)
	}
}

// TestConfigRoundTrip pins that the canonical encoding carries every
// serialisable setting: decoding what EncodeConfig wrote gives back the
// same Config, including zeros that are valid but not the default.
func TestConfigRoundTrip(t *testing.T) {
	params := core.DefaultParams(core.SchemeZBR)
	params.CollisionTarget = 0.07
	params.NeighborTTL = 45
	full := Config{
		Scheme:              core.SchemeZBR,
		NumSensors:          37,
		NumSinks:            2,
		FieldSize:           120,
		ZonesPerSide:        4,
		MaxSpeed:            3.5,
		ExitProb:            0.35,
		RangeM:              12,
		BitrateBps:          20_000,
		ControlBits:         60,
		DataBits:            800,
		QueueCapacity:       50,
		ArrivalMeanSeconds:  90,
		DurationSeconds:     3000,
		TrafficStopSeconds:  2500,
		MobilityTickSeconds: 0.5,
		BatteryJoules:       40,
		MobileSinks:         true,
		LossProb:            0.02,
		Faults: &faults.Plan{
			Churn:       &faults.Churn{MTBFSeconds: 800, MTTRSeconds: 200, Fraction: 0.3},
			SinkOutages: []faults.Outage{{Sink: 1, StartSeconds: 500, DurationSeconds: 250}},
			Burst:       &faults.Burst{GoodLossProb: 0.01, BadLossProb: 0.7, MeanGoodSeconds: 90, MeanBadSeconds: 30},
			Kills:       []faults.Kill{{AtSeconds: 2000, Fraction: 0.1}},
		},
		Seed:                77,
		LinearMedium:        true,
		EagerDecay:          true,
		DeliveryThreshold:   0.8,
		DropThreshold:       0.9,
		Invariants:          "report",
		InjectSkipSenderFTD: true,
		Telemetry:           true,
		Params:              &params,
	}
	// Every serialised field must be set away from its default above, so a
	// field added to Config without joining this case fails here.
	def := reflect.ValueOf(DefaultConfig(core.SchemeOPT))
	typ := def.Type()
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Tag.Get("json") == "-" {
			continue
		}
		if reflect.DeepEqual(reflect.ValueOf(full).Field(i).Interface(), def.Field(i).Interface()) {
			t.Errorf("field %s is left at its default; set it in this test", typ.Field(i).Name)
		}
	}

	zeros := DefaultConfig(core.SchemeOPT)
	zeros.Seed = 0
	zeros.ExitProb = 0

	for name, cfg := range map[string]Config{"full": full, "zeros": zeros} {
		blob, err := EncodeConfig(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := DecodeConfig(blob)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, blob)
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Errorf("%s: round trip changed the config:\nwant %+v\ngot  %+v\n%s", name, cfg, back, blob)
		}
	}
}

func TestLoadConfigRejectsBadInput(t *testing.T) {
	cases := []string{
		`{`,                                 // malformed JSON
		`{"scheme": "teleport"}`,            // unknown scheme
		`{"scheme": "OPT", "sensores": 5}`,  // typo (unknown field)
		`{"scheme": "OPT", "sensors": -5}`,  // invalid value
		`{"scheme": "OPT", "loss_prob": 2}`, // out of range
		`{}`,                                // missing scheme
		`{"scheme": "OPT", "params": {"BatteryJoules": 5}}`, // set from Config, not params
	}
	for _, doc := range cases {
		if _, err := LoadConfig(strings.NewReader(doc)); err == nil {
			t.Errorf("accepted %q", doc)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := DefaultConfig(core.SchemeNOOPT)
	orig.NumSensors = 33
	orig.LossProb = 0.05
	orig.Seed = 7
	orig.DeliveryThreshold = 0.8
	var sb strings.Builder
	if err := SaveConfig(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if back.Scheme != orig.Scheme || back.NumSensors != 33 || back.LossProb != 0.05 ||
		back.Seed != 7 || back.DeliveryThreshold != 0.8 {
		t.Fatalf("round trip lost fields:\n%+v\n%+v", orig, back)
	}
}

func TestLoadConfigFaultPlan(t *testing.T) {
	doc := `{
		"scheme": "OPT",
		"faults": {
			"churn": {"mtbf_s": 500, "mttr_s": 100, "fraction": 0.5, "preserve_buffer": true},
			"sink_outages": [{"sink": -1, "start_s": 100, "duration_s": 50}],
			"burst_loss": {"bad_loss_prob": 0.9, "mean_good_s": 60, "mean_bad_s": 20},
			"kills": [{"at_s": 1000, "fraction": 0.25}]
		}
	}`
	cfg, err := LoadConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Faults
	if p == nil || p.Churn == nil || p.Burst == nil {
		t.Fatalf("plan not loaded: %+v", p)
	}
	if p.Churn.MTBFSeconds != 500 || p.Churn.MTTRSeconds != 100 || p.Churn.Fraction != 0.5 || !p.Churn.PreserveBuffer {
		t.Fatalf("churn %+v", p.Churn)
	}
	if len(p.SinkOutages) != 1 || p.SinkOutages[0].Sink != -1 || p.SinkOutages[0].DurationSeconds != 50 {
		t.Fatalf("outages %+v", p.SinkOutages)
	}
	if p.Burst.BadLossProb != 0.9 || p.Burst.MeanGoodSeconds != 60 {
		t.Fatalf("burst %+v", p.Burst)
	}
	if len(p.Kills) != 1 || p.Kills[0].AtSeconds != 1000 || p.Kills[0].Fraction != 0.25 {
		t.Fatalf("kills %+v", p.Kills)
	}
}

func TestLoadConfigRejectsBadFaultPlan(t *testing.T) {
	cases := []string{
		`{"scheme": "OPT", "faults": {"churn": {"mtbf_s": -1, "mttr_s": 100}}}`,                                // negative MTBF
		`{"scheme": "OPT", "faults": {"churn": {"mtbf_s": 500}}}`,                                              // missing MTTR
		`{"scheme": "OPT", "faults": {"churn": {"mtbf_s": "fast", "mttr_s": 100}}}`,                            // wrong type
		`{"scheme": "OPT", "faults": {"sink_outages": [{"sink": 7, "start_s": 1, "duration_s": 1}]}}`,          // no such sink
		`{"scheme": "OPT", "faults": {"sink_outages": [{"sink": 0, "start_s": 1}]}}`,                           // zero duration
		`{"scheme": "OPT", "faults": {"burst_loss": {"bad_loss_prob": 2, "mean_good_s": 1, "mean_bad_s": 1}}}`, // prob > 1
		`{"scheme": "OPT", "faults": {"kills": [{"at_s": 99999, "fraction": 0.5}]}}`,                           // beyond the run
		`{"scheme": "OPT", "faults": {"kills": [{"at_s": 100, "fraction": 1.5}]}}`,                             // fraction > 1
		`{"scheme": "OPT", "faults": {"churns": {}}}`,                                                          // typo (unknown field)
		`{"scheme": "OPT", "fail_fraction": 0.5, "fail_at_s": 500}`,                                            // removed keys (unknown fields)
	}
	for _, doc := range cases {
		if _, err := LoadConfig(strings.NewReader(doc)); err == nil {
			t.Errorf("accepted %q", doc)
		}
	}
}

func TestSaveLoadRoundTripFaultPlan(t *testing.T) {
	orig := DefaultConfig(core.SchemeOPT)
	orig.Faults = &faults.Plan{
		Churn:       &faults.Churn{MTBFSeconds: 800, MTTRSeconds: 200, Fraction: 0.3, StartSeconds: 50, PreserveXi: true},
		SinkOutages: []faults.Outage{{Sink: 1, StartSeconds: 500, DurationSeconds: 250}},
		Burst:       &faults.Burst{GoodLossProb: 0.01, BadLossProb: 0.7, MeanGoodSeconds: 90, MeanBadSeconds: 30},
		Kills:       []faults.Kill{{AtSeconds: 2000, Fraction: 0.1}},
	}
	var sb strings.Builder
	if err := SaveConfig(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if !reflect.DeepEqual(back.Faults, orig.Faults) {
		t.Fatalf("fault plan lost in round trip:\n%+v\n%+v", orig.Faults, back.Faults)
	}
}

// FuzzLoadConfig checks that arbitrary config documents — including
// malformed fault plans — either load into a valid Config or error
// cleanly, never panic.
func FuzzLoadConfig(f *testing.F) {
	seeds := []string{
		`{"scheme": "opt"}`,
		`{"scheme": "ZBR", "sensors": 42, "faults": {"kills": [{"at_s": 500, "fraction": 0.2}]}}`,
		`{"scheme": "OPT", "faults": {"churn": {"mtbf_s": 500, "mttr_s": 100}}}`,
		`{"scheme": "OPT", "faults": {"sink_outages": [{"sink": -1, "start_s": 1, "duration_s": 1}]}}`,
		`{"scheme": "OPT", "faults": {"burst_loss": {"bad_loss_prob": 0.9, "mean_good_s": 6e1, "mean_bad_s": 2}}}`,
		`{"scheme": "OPT", "faults": {"kills": [{"at_s": 1e3, "fraction": 0.25}]}}`,
		`{"scheme": "OPT", "faults": {"churn": {"mtbf_s": 1e999, "mttr_s": null}}}`,
		`{"scheme": "OPT", "faults": {"kills": [{"at_s": "NaN"}]}}`,
		`{"scheme": "OPT", "faults": {`,
		`{"scheme": "OPT", "faults": 7}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		cfg, err := LoadConfig(strings.NewReader(doc))
		if err != nil {
			return
		}
		// Whatever loads must already be validated.
		if err := cfg.Validate(); err != nil {
			t.Fatalf("LoadConfig accepted an invalid config: %v\n%s", err, doc)
		}
	})
}

func TestParseScheme(t *testing.T) {
	for _, s := range core.AllSchemes() {
		got, err := ParseScheme(strings.ToLower(s.String()))
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("nope"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestSaveLoadRoundTripInvariantFields(t *testing.T) {
	orig := DefaultConfig(core.SchemeOPT)
	orig.Invariants = "panic"
	orig.InjectSkipSenderFTD = true
	var sb strings.Builder
	if err := SaveConfig(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if back.Invariants != "panic" || !back.InjectSkipSenderFTD {
		t.Fatalf("round trip lost invariant fields:\n%s\n%+v", sb.String(), back)
	}
	// The default (engine off, no injection) keeps the keys out of the JSON.
	var plain strings.Builder
	if err := SaveConfig(&plain, DefaultConfig(core.SchemeOPT)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "invariants") || strings.Contains(plain.String(), "inject_") {
		t.Fatalf("zero-valued invariant keys serialized:\n%s", plain.String())
	}
}
