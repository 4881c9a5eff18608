package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"dftmsn/internal/metrics"
	"dftmsn/internal/radio"
	"dftmsn/internal/scenario"
)

// projection is the part of a Result the output check hashes: simulated
// statistics only. Kernel counters (Events, EventsScheduled, EventsElided)
// and wall-clock fields stay out, so a valid elision or scheduling gain is
// not flagged as a wrong answer.
type projection struct {
	Delivery                metrics.Summary
	AvgSensorPowerMW        float64
	AvgDutyCycle            float64
	Channel                 radio.Stats
	DropsFull               uint64
	DropsThreshold          uint64
	Sleeps                  uint64
	ControlBitsPerDelivered float64
	AliveFraction           float64
	FirstDeathSeconds       float64
	Resilience              scenario.Resilience
}

// resultHash is the first 16 hex digits of the SHA-256 of the projection's
// JSON encoding (map keys sorted, floats in shortest round-trip form, so a
// Result decoded from a service payload hashes like the one that made it).
func resultHash(r *scenario.Result) string {
	b, err := json.Marshal(projection{
		Delivery:                r.Delivery,
		AvgSensorPowerMW:        r.AvgSensorPowerMW,
		AvgDutyCycle:            r.AvgDutyCycle,
		Channel:                 r.Channel,
		DropsFull:               r.DropsFull,
		DropsThreshold:          r.DropsThreshold,
		Sleeps:                  r.Sleeps,
		ControlBitsPerDelivered: r.ControlBitsPerDelivered,
		AliveFraction:           r.AliveFraction,
		FirstDeathSeconds:       r.FirstDeathSeconds,
		Resilience:              r.Resilience,
	})
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal projection: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// expectedFile holds the expected projection hash of every job any seed
// can generate, per GOARCH (floating-point results are pinned per
// architecture), keyed by job key. Regenerate with -regen.
const expectedFile = "expected.json"

//go:embed expected.json
var expectedJSON []byte

// expectations maps job keys to expected hashes for this GOARCH. A job
// whose key is missing fails the check: the benchmark fails closed.
type expectations map[string]string

func loadExpectations() (expectations, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("perfbench: %s: %w", expectedFile, err)
	}
	exp, ok := all[runtime.GOARCH]
	if !ok {
		return nil, fmt.Errorf("perfbench: %s has no hashes for GOARCH=%s; run with -regen on a trusted build", expectedFile, runtime.GOARCH)
	}
	return exp, nil
}

// verify reports whether r matches the expected hash for key.
func (e expectations) verify(key string, r *scenario.Result) bool {
	want, ok := e[key]
	return ok && want == resultHash(r)
}

// verifyPayload decodes a service result payload and verifies it.
func (e expectations) verifyPayload(key string, payload []byte) bool {
	var r scenario.Result
	if err := json.Unmarshal(payload, &r); err != nil {
		return false
	}
	return e.verify(key, &r)
}

// regenerate runs every job in the catalogs of all workloads and rewrites
// the expected hashes of this GOARCH in the package directory, keeping the
// other architectures' entries.
func regenerate(path string) error {
	all := map[string]map[string]string{}
	if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("perfbench: %s: %w", path, err)
		}
	}
	exp := map[string]string{}
	for _, j := range allCatalogJobs() {
		cfg, err := scenario.DecodeConfig(j.config)
		if err != nil {
			return err
		}
		s, err := scenario.New(cfg)
		if err != nil {
			return fmt.Errorf("perfbench: %s: %w", j.key, err)
		}
		res, err := s.Run()
		if err != nil {
			return fmt.Errorf("perfbench: %s: %w", j.key, err)
		}
		exp[j.key] = resultHash(&res)
	}
	all[runtime.GOARCH] = exp
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d %s hashes to %s\n", len(exp), runtime.GOARCH, path)
	return nil
}
