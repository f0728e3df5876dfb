package core

import (
	"fmt"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// Lemma1Bound returns the paper's lower bound on E(|A_{t+1}| | A_t = A)
// for an r-regular graph with second eigenvalue lambda (in absolute value):
//
//	Lemma 1    (K >= 2):        |A|·(1 + (1-λ²)·(1-|A|/n))
//	Corollary 1 (K = 1, ρ > 0): |A|·(1 + ρ·(1-λ²)·(1-|A|/n))
//
// For K >= 2 the extra pushes beyond the second only help, so the K = 2
// bound remains valid. For K = 1 with ρ = 0 the process is a plain random
// walk and the lemma gives no growth (factor 0).
func Lemma1Bound(sizeA, n int, lambda float64, branch Branching) float64 {
	a := float64(sizeA)
	frac := (1 - lambda*lambda) * (1 - a/float64(n))
	switch {
	case branch.K >= 2:
		return a * (1 + frac)
	case branch.Rho > 0:
		return a * (1 + branch.Rho*frac)
	default:
		return a
	}
}

// ExactExpectedGrowth evaluates E(|A_{t+1}| | A_t = A) in closed form from
// equation (3) of the paper:
//
//	E = 1 + Σ_{u ∈ Γ(A)∖{source}} (1 - (1-d_A(u)/d(u))^K·(1-ρ·d_A(u)/d(u)))
//
// at O(Σ_{v∈A} deg(v)) cost. A must not contain duplicates; source must be
// a member of A.
func ExactExpectedGrowth(g *graph.Graph, source int32, a []int32, branch Branching) (float64, error) {
	if err := branch.Validate(); err != nil {
		return 0, err
	}
	n := g.N()
	if source < 0 || int(source) >= n {
		return 0, fmt.Errorf("core: source %d out of range [0,%d)", source, n)
	}
	inA := make([]bool, n)
	srcOK := false
	for _, v := range a {
		if v < 0 || int(v) >= n {
			return 0, fmt.Errorf("core: vertex %d out of range [0,%d)", v, n)
		}
		if inA[v] {
			return 0, fmt.Errorf("core: duplicate vertex %d in A", v)
		}
		inA[v] = true
		if v == source {
			srcOK = true
		}
	}
	if !srcOK {
		return 0, fmt.Errorf("core: source %d not in A", source)
	}
	// d_A(u) for u ∈ Γ(A) via one pass over the edges leaving A. The sum
	// runs over Γ(A) in first-seen order, so repeated calls on one set
	// are bit-identical.
	dA := make([]int, n)
	var seen []int32
	for _, v := range a {
		for _, u := range g.Neighbors(v) {
			if dA[u] == 0 {
				seen = append(seen, u)
			}
			dA[u]++
		}
	}
	expected := 1.0 // the persistent source
	for _, u := range seen {
		if u == source {
			continue
		}
		expected += infectProb(dA[u], g.Degree(u), branch)
	}
	return expected, nil
}

// SampleGrowth runs trials independent single BIPS steps from A_t = a
// (source included) and returns the sampled |A_{t+1}| values. Used to
// validate Lemma 1 empirically and to measure the growth-factor
// distribution that the paper's Lemma 2 martingale argument integrates.
func SampleGrowth(g *graph.Graph, source int32, a []int32, branch Branching, trials int, seed uint64) ([]float64, error) {
	if trials < 1 {
		return nil, fmt.Errorf("core: trials = %d, need >= 1", trials)
	}
	b, err := NewBIPS(g, WithBranching(branch))
	if err != nil {
		return nil, err
	}
	extra := make([]int32, 0, len(a))
	for _, v := range a {
		if v != source {
			extra = append(extra, v)
		}
	}
	r := rng.NewStream(seed, 0x9c0147)
	out := make([]float64, trials)
	for i := 0; i < trials; i++ {
		if err := b.Reset(source, extra...); err != nil {
			return nil, err
		}
		if b.InfectedCount() != len(extra)+1 {
			return nil, fmt.Errorf("core: duplicate vertices in A")
		}
		b.Step(r)
		out[i] = float64(b.InfectedCount())
	}
	return out, nil
}

// RandomInfectedSet draws a uniformly random subset of V of the given size
// containing source, for conditioned growth experiments.
func RandomInfectedSet(g *graph.Graph, source int32, size int, r *rng.Rand) ([]int32, error) {
	n := g.N()
	if size < 1 || size > n {
		return nil, fmt.Errorf("core: set size %d out of range [1,%d]", size, n)
	}
	perm := make([]int32, 0, n-1)
	for v := int32(0); v < int32(n); v++ {
		if v != source {
			perm = append(perm, v)
		}
	}
	r.ShuffleInt32s(perm)
	set := make([]int32, 0, size)
	set = append(set, source)
	set = append(set, perm[:size-1]...)
	return set, nil
}
