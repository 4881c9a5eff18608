// Package simrand provides deterministic, splittable random-number streams
// for simulations.
//
// A simulation run owns one Source seeded from the scenario seed. Every
// consumer (each node's mobility, each node's MAC backoff, the traffic
// generator, ...) derives its own independent stream via Split, keyed by a
// stable label. Because streams are derived from (seed, label) only, adding
// a new consumer does not perturb the draws seen by existing consumers,
// which keeps regression comparisons meaningful across code changes.
package simrand

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// Source is a deterministic random stream. It wraps a PCG generator and adds
// the distribution helpers the simulator needs.
type Source struct {
	rng *rand.Rand
	pcg *rand.PCG
}

// New returns a stream derived from the given 64-bit seed.
func New(seed uint64) *Source {
	pcg := rand.NewPCG(seed, 0x9e3779b97f4a7c15)
	return &Source{rng: rand.New(pcg), pcg: pcg}
}

// Split derives an independent stream keyed by label. Splitting with the
// same label twice yields streams with identical draws; use distinct labels
// per consumer ("node/17/mobility", "traffic", ...).
func (s *Source) Split(label string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label)) // fnv's Write never errors
	mix := h.Sum64()
	// Mix the label hash with fresh draws so sibling splits differ even for
	// colliding labels, while remaining a pure function of the parent state.
	pcg := rand.NewPCG(s.rng.Uint64()^mix, mix)
	return &Source{rng: rand.New(pcg), pcg: pcg}
}

// State captures the stream position for a later Restore. rand.Rand keeps
// no state of its own (every helper pulls directly from the generator), so
// the PCG snapshot alone pins down all future draws.
type State []byte

// State returns an opaque snapshot of the stream position. Speculative
// consumers (the idle-span planner) snapshot before drawing ahead, and on
// early abort Restore + re-draw the prefix actually consumed, keeping the
// stream bit-identical to one that never drew ahead.
func (s *Source) State() State { return s.Mark().State() }

// Restore rewinds the stream to a snapshot taken by State.
func (s *Source) Restore(st State) {
	if err := s.pcg.UnmarshalBinary(st); err != nil {
		panic(err)
	}
}

// Mark is a stream position held by value: taking one and rewinding to it
// copy the generator's state and allocate nothing, where State allocates
// its encoding. Speculative consumers that snapshot on every attempt (the
// idle-span planner) keep a Mark and convert it to a State only when a
// snapshot is exported.
type Mark struct{ pcg rand.PCG }

// Mark returns the current stream position.
func (s *Source) Mark() Mark { return Mark{pcg: *s.pcg} }

// Rewind returns the stream to a position taken by Mark.
func (s *Source) Rewind(m Mark) { *s.pcg = m.pcg }

// State returns the mark's position in the encoding Source.State uses.
func (m Mark) State() State {
	b, err := m.pcg.MarshalBinary()
	if err != nil {
		// PCG's MarshalBinary cannot fail; keep the invariant visible.
		panic(err)
	}
	return b
}

// MarkOf decodes a State into a Mark.
func MarkOf(st State) (Mark, error) {
	var m Mark
	if err := m.pcg.UnmarshalBinary(st); err != nil {
		return Mark{}, fmt.Errorf("simrand: %w", err)
	}
	return m, nil
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand/v2 semantics.
func (s *Source) IntN(n int) int { return s.rng.IntN(n) }

// SlotIn returns a uniform integer in [1, n]. Used for contention slots,
// which the paper indexes from 1. n < 1 is treated as 1.
func (s *Source) SlotIn(n int) int {
	if n < 1 {
		return 1
	}
	return 1 + s.rng.IntN(n)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// Exp returns an exponentially distributed draw with the given mean.
// It is used for Poisson inter-arrival times. A non-positive mean returns 0.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := s.rng.Float64()
	// Guard the log: Float64 is in [0,1); 1-u is in (0,1].
	return -mean * math.Log(1-u)
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Uint64 returns a raw 64-bit draw.
func (s *Source) Uint64() uint64 { return s.rng.Uint64() }
