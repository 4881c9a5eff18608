package optimize

import (
	"math"
	"math/rand/v2"
	"testing"
)

// refGrabProbability is the direct transcription of Eq. 10/11 that
// grabProbability shortens: every τ up to σ_i, with the zero terms summed.
func refGrabProbability(sigmas []int, i int) float64 {
	si := sigmas[i]
	if si < 1 {
		return 0
	}
	var pi float64
	for tau := 1; tau <= si; tau++ {
		term := 1 / float64(si)
		for j, sj := range sigmas {
			if j == i {
				continue
			}
			if sj > tau {
				term *= float64(sj-tau) / float64(sj)
			} else {
				term = 0
				break
			}
		}
		pi += term
	}
	return pi
}

// refPreambleCollisionProb is Eq. 12 over refGrabProbability.
func refPreambleCollisionProb(sigmas []int) float64 {
	var sum float64
	for i := range sigmas {
		sum += refGrabProbability(sigmas, i)
	}
	g := 1 - sum
	if g < 0 {
		return 0
	}
	if g > 1 {
		return 1
	}
	return g
}

// refMinTauMax is the plain Eq. 13 search MinTauMax must agree with: every
// τ_max from 1 up, each evaluated in full.
func refMinTauMax(xis []float64, target float64, cap_ int) (int, bool) {
	if cap_ < 1 {
		cap_ = 1
	}
	if len(xis) < 2 {
		return 1, true
	}
	if target < 0 {
		target = 0
	}
	sigmas := make([]int, len(xis))
	for tm := 1; tm <= cap_; tm++ {
		for i, xi := range xis {
			sigmas[i] = Sigma(xi, tm)
		}
		if refPreambleCollisionProb(sigmas) <= target {
			return tm, true
		}
	}
	return cap_, false
}

// randomXis draws a ξ vector the way neighbour tables fill: unsorted, with
// repeated values, exact 0s and 1s, and occasionally out-of-range entries
// that Sigma clamps.
func randomXis(rng *rand.Rand) []float64 {
	n := rng.IntN(12)
	if rng.IntN(8) == 0 {
		n += 30 // a crowded neighbourhood
	}
	xis := make([]float64, n)
	for i := range xis {
		switch rng.IntN(8) {
		case 0:
			xis[i] = 0
		case 1:
			xis[i] = 1
		case 2:
			if i > 0 {
				xis[i] = xis[rng.IntN(i)]
			}
		case 3:
			xis[i] = rng.Float64() * 0.05 // small: long runs of σ = 1
		case 4:
			xis[i] = rng.Float64()*3 - 1
		default:
			xis[i] = rng.Float64()
		}
	}
	return xis
}

// TestMinTauMaxMatchesFullSearch checks the σ = 1 skip and the shortened
// Eq. 10/11 sum against the full search, bit for bit, over random ξ
// vectors, targets in (0,1) and at or above 1, and caps from 1 to 64.
func TestMinTauMaxMatchesFullSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	targets := []float64{0.01, 0.1, 0.3, 0.5, 0.9, 0.999, 1, 1.5, 0, -0.2}
	for trial := 0; trial < 3000; trial++ {
		xis := randomXis(rng)
		target := targets[rng.IntN(len(targets))]
		if rng.IntN(3) == 0 {
			target = rng.Float64()
		}
		cap_ := 1 + rng.IntN(64)
		gotTau, gotOK := MinTauMax(xis, target, cap_)
		wantTau, wantOK := refMinTauMax(xis, target, cap_)
		if gotTau != wantTau || gotOK != wantOK {
			t.Fatalf("MinTauMax(%v, %v, %d) = (%d, %v), full search (%d, %v)",
				xis, target, cap_, gotTau, gotOK, wantTau, wantOK)
		}
	}
}

// TestGrabProbabilitiesMatchFullSum checks the shortened Eq. 10/11 sum
// returns bit-identical P_i and γ, including for σ of 0 or below.
func TestGrabProbabilitiesMatchFullSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	for trial := 0; trial < 3000; trial++ {
		sigmas := make([]int, rng.IntN(10))
		for i := range sigmas {
			sigmas[i] = rng.IntN(40) - 2
		}
		got := GrabProbabilities(sigmas)
		for i := range sigmas {
			if want := refGrabProbability(sigmas, i); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("P_%d of %v = %v, full sum %v", i, sigmas, got[i], want)
			}
		}
		if g, want := PreambleCollisionProb(sigmas), refPreambleCollisionProb(sigmas); math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("γ of %v = %v, full sum %v", sigmas, g, want)
		}
	}
}
