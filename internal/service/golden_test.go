package service

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dftmsn/internal/core"
	"dftmsn/internal/faults"
	"dftmsn/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// goldenConfigs is the matrix whose canonical encodings and cache keys are
// pinned. Every contributor to the encoding appears somewhere: scheme,
// topology, radio, traffic, fault plans, thresholds, invariants, custom
// params, and the control-arm switches.
func goldenConfigs() []struct {
	name string
	cfg  scenario.Config
} {
	plain := scenario.DefaultConfig(core.SchemeOPT)

	seeded := scenario.DefaultConfig(core.SchemeZBR)
	seeded.Seed = 12345
	seeded.NumSensors = 42
	seeded.NumSinks = 3
	seeded.DurationSeconds = 7200
	seeded.ArrivalMeanSeconds = 55
	seeded.QueueCapacity = 9

	faulty := scenario.DefaultConfig(core.SchemeNOOPT)
	faulty.Faults = &faults.Plan{
		Churn:       &faults.Churn{MTBFSeconds: 300, MTTRSeconds: 60, Fraction: 0.25},
		SinkOutages: []faults.Outage{{Sink: 0, StartSeconds: 100, DurationSeconds: 50}},
		Burst:       &faults.Burst{GoodLossProb: 0.01, BadLossProb: 0.5, MeanGoodSeconds: 80, MeanBadSeconds: 20},
		Kills:       []faults.Kill{{AtSeconds: 900, Fraction: 0.1}},
	}
	faulty.Invariants = "report"
	faulty.Telemetry = true

	tuned := scenario.DefaultConfig(core.SchemeEpidemic)
	p := core.DefaultParams(core.SchemeEpidemic)
	p.CollisionTarget = 0.07
	p.NeighborTTL = 45
	tuned.Params = &p
	tuned.BatteryJoules = 150
	tuned.MobileSinks = true
	tuned.LossProb = 0.05
	tuned.DeliveryThreshold = 0.9
	tuned.DropThreshold = 0.05
	tuned.TrafficStopSeconds = 4000

	legacy := scenario.DefaultConfig(core.SchemeDirect)
	legacy.LinearMedium = true
	legacy.EagerDecay = true
	legacy.InjectSkipSenderFTD = true

	return []struct {
		name string
		cfg  scenario.Config
	}{
		{"default-opt", plain},
		{"seeded-zbr", seeded},
		{"faulted-noopt", faulty},
		{"tuned-epidemic", tuned},
		{"legacy-direct", legacy},
	}
}

// TestCanonicalEncodingAndCacheKeyGolden pins the exact canonical JSON
// bytes of EncodeConfig and the cache key derived from them for a config
// matrix. These bytes are load-bearing three ways — snapshots embed them,
// the chaos state file fingerprints with them, and the service cache is
// addressed by their hash — so any drift must be a conscious, reviewed
// change (run with -update to re-pin).
//
// Keys are derived under a pinned build version: the golden file must not
// change just because the binary was rebuilt.
func TestCanonicalEncodingAndCacheKeyGolden(t *testing.T) {
	savedVersion := buildVersion
	buildVersion = "golden-test-build"
	defer func() { buildVersion = savedVersion }()

	var got bytes.Buffer
	for _, c := range goldenConfigs() {
		blob, err := scenario.EncodeConfig(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// The encoding must decode back to an identical encoding — the
		// fixed-point property every consumer of these bytes assumes.
		cfg2, err := scenario.DecodeConfig(blob)
		if err != nil {
			t.Fatalf("%s: canonical bytes do not decode: %v", c.name, err)
		}
		blob2, err := scenario.EncodeConfig(cfg2)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("%s: canonical encoding is not a fixed point", c.name)
		}
		key, err := CacheKey(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&got, "== %s\n%skey=%s\n", c.name, blob, key)
	}

	path := filepath.Join("testdata", "cachekeys.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("canonical encodings or cache keys drifted from %s.\n"+
			"If this change is intentional (it invalidates caches and snapshot compatibility), re-pin with:\n"+
			"  go test ./internal/service -run Golden -update\ngot:\n%s", path, got.Bytes())
	}
}

// TestBuildVersionNamesPlatform pins the scope of bit-identity into the
// cache key: results from another architecture or Go release never match.
func TestBuildVersionNamesPlatform(t *testing.T) {
	v := BuildVersion()
	if !strings.Contains(v, runtime.GOARCH) || !strings.Contains(v, runtime.Version()) {
		t.Fatalf("build version %q does not name %s and %s", v, runtime.GOARCH, runtime.Version())
	}
}
