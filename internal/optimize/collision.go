package optimize

import (
	"fmt"
	"math"
)

// Sigma computes Eq. 9: the upper bound σ = ξ·τ_max of a node's uniformly
// drawn listening period, in slots, floored at one slot. Nodes with low
// delivery probability get a short bound and therefore grab the channel
// sooner — they are the ones most likely to find qualified receivers.
func Sigma(xi float64, tauMax int) int {
	if tauMax < 1 {
		tauMax = 1
	}
	if xi < 0 {
		xi = 0
	}
	if xi > 1 {
		xi = 1
	}
	s := int(math.Round(xi * float64(tauMax)))
	if s < 1 {
		return 1
	}
	return s
}

// GrabProbabilities computes Eq. 10/11 for an independent cell of m nodes
// with listening bounds sigmas: P_i is the probability node i alone picks
// the strictly smallest listening period and therefore grabs the channel.
//
//	P_i = Σ_{τ=1}^{σ_i} (1/σ_i) · Π_{j≠i} θ_ij/σ_j,
//	θ_ij = σ_j − τ  if σ_j > τ, else 0.
func GrabProbabilities(sigmas []int) []float64 {
	probs := make([]float64, len(sigmas))
	for i := range sigmas {
		probs[i] = grabProbability(sigmas, i)
	}
	return probs
}

// grabProbability computes one node's P_i of Eq. 10/11. The τ sum stops
// below the smallest σ_j (j ≠ i): from there on some θ_ij is 0, so every
// later term is exactly 0 and adding it would leave P_i unchanged.
func grabProbability(sigmas []int, i int) float64 {
	si := sigmas[i]
	last := si
	for j, sj := range sigmas {
		if j != i && sj-1 < last {
			last = sj - 1
		}
	}
	var pi float64
	for tau := 1; tau <= last; tau++ {
		term := 1 / float64(si)
		for j, sj := range sigmas {
			if j != i { // σ_j > τ for every j ≠ i here
				term *= float64(sj-tau) / float64(sj)
			}
		}
		pi += term
	}
	return pi
}

// PreambleCollisionProb computes Eq. 12: the probability γ that no node
// grabs the channel cleanly, i.e. 1 − Σ_i P_i. Summing grabProbability
// directly keeps the Eq. 13 linear search (one call per candidate τ_max)
// allocation-free.
func PreambleCollisionProb(sigmas []int) float64 {
	var sum float64
	for i := range sigmas {
		sum += grabProbability(sigmas, i)
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

// MinTauMax solves Eq. 13: the smallest τ_max (in slots) for which the
// preamble collision probability among nodes with delivery probabilities
// xis stays at or below target. The search is linear up to cap; if even cap
// cannot meet the target, cap is returned along with ok=false.
//
// Fewer than two contenders can never collide, so τ_max = 1 suffices.
// While two or more σ are 1 slot, those nodes always pick the same first
// slot: every P_i is exactly 0 and γ exactly 1, so such a τ_max meets only
// a target of 1 or more, and for any lower target it is skipped without
// evaluating Eqs. 10-12.
func MinTauMax(xis []float64, target float64, cap_ int) (tauMax int, ok bool) {
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
		ones := 0
		for i, xi := range xis {
			sigmas[i] = Sigma(xi, tm)
			if sigmas[i] == 1 {
				ones++
			}
		}
		if ones >= 2 && target < 1 {
			continue
		}
		if PreambleCollisionProb(sigmas) <= target {
			return tm, true
		}
	}
	return cap_, false
}

// CTSCollisionProb computes Eq. 14: with n qualified neighbours each picking
// one of W slots uniformly at random, the probability that at least two pick
// the same slot:
//
//	γ_o = 1 − C(W,n)·n!/W^n = 1 − Π_{k=0}^{n−1} (W−k)/W.
//
// n ≤ 1 never collides; n > W always does.
func CTSCollisionProb(window, n int) (float64, error) {
	if window < 1 {
		return 0, fmt.Errorf("optimize: window %d must be >= 1", window)
	}
	if n < 0 {
		return 0, fmt.Errorf("optimize: n %d must be >= 0", n)
	}
	if n <= 1 {
		return 0, nil
	}
	if n > window {
		return 1, nil
	}
	free := 1.0
	for k := 0; k < n; k++ {
		free *= float64(window-k) / float64(window)
	}
	g := 1 - free
	if g < 0 {
		g = 0
	}
	return g, nil
}

// MinWindow performs the Eq. 14 linear search: the smallest contention
// window W for which n repliers collide with probability at most target.
// The search is capped at cap; if the target is unreachable within cap,
// cap is returned with ok=false. n of zero or one returns the minimum
// window of 1.
func MinWindow(n int, target float64, cap_ int) (window int, ok bool) {
	if cap_ < 1 {
		cap_ = 1
	}
	if n <= 1 {
		return 1, true
	}
	if target < 0 {
		target = 0
	}
	for w := n; w <= cap_; w++ {
		g, err := CTSCollisionProb(w, n)
		if err != nil {
			return cap_, false // unreachable: w >= n >= 2
		}
		if g <= target {
			return w, true
		}
	}
	return cap_, false
}
