// Package service is the hardened scenario daemon behind cmd/dftserve: an
// HTTP/JSON front end that accepts scenario runs, named sweeps, and chaos
// campaigns, executes them on a bounded worker pool, and survives the
// operational failure modes a long-lived simulation service meets —
// overload (bounded admission queue with backpressure and per-tenant
// quotas), runaway jobs (cooperative wall-clock deadlines that preserve
// bit-identical telemetry prefixes), poison jobs (panic isolation, bounded
// retry with backoff, quarantine), repeated work (a content-addressed
// result cache — determinism makes the scenario config plus seed plus
// build a complete identity for the result), and crashes (a fsync'd JSONL
// journal that replays unfinished jobs on restart, resuming chaos
// campaigns from their state files to bit-identical verdicts).
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"

	"dftmsn/internal/scenario"
)

// buildVersion identifies the running build in cache keys, so results
// computed by one binary are never served as another's. Module version and
// VCS revision both feed in when the build carries them; a plain `go test`
// build degrades to "(devel)", which still separates it from any released
// build. The architecture and toolchain feed in too: bit-identity holds
// only within one GOARCH and one Go release (docs/PROTOCOL.md §8), so a
// journal moved to another platform must not serve its cached floats.
var buildVersion = func() string {
	v := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		v = bi.Main.Version
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				v += "+" + s.Value
			}
		}
	}
	if v == "" {
		v = "unknown"
	}
	return v + " " + runtime.GOARCH + " " + runtime.Version()
}()

// BuildVersion reports the build identity mixed into every cache key.
func BuildVersion() string { return buildVersion }

// CacheKey derives the content address of a scenario run's Result: the
// SHA-256 of the canonical config encoding, the seed, and the build
// version. The simulation is deterministic, so these three fully determine
// the Result — two submissions with the same key can share one simulation.
// Runtime-only attachments (recorders, cancellation and progress probes) are
// excluded from the encoding and therefore never perturb the key.
func CacheKey(cfg scenario.Config) (string, error) {
	blob, err := scenario.EncodeConfig(cfg)
	if err != nil {
		return "", err
	}
	return keyOf("run", blob, []byte(fmt.Sprintf("seed=%d", cfg.Seed))), nil
}

// keyOf hashes a job kind and its identity parts with the build version
// into a hex cache key. Parts are length-prefixed so no two part lists
// collide by concatenation.
func keyOf(kind string, parts ...[]byte) string {
	h := sha256.New()
	add := func(b []byte) {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	add([]byte("dftmsn-result-v1"))
	add([]byte(buildVersion))
	add([]byte(kind))
	for _, p := range parts {
		add(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
