package expt

import (
	"fmt"
	"math"

	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
)

// lemma2MGF holds a Monte-Carlo estimate of the exponential-moment
// sequence at the heart of the paper's Lemma 2:
//
//	G_t(φ) = E[ e^{-φ(|A_t|-|A_0|)} · 1{|A_s| < m+1 for all s ≤ t-1} ],
//
// which the paper proves satisfies G_t(φ) ≤ exp(t·(log(1+x) - x)) for
// φ = log(1+x), x = (1-λ)/2, and m ≤ n/2. The estimate lets the proof's
// engine be checked empirically, not just its conclusion.
type lemma2MGF struct {
	Phi float64
	X   float64
	M   int
	// G[t] is the Monte-Carlo estimate of G_t(φ); SE[t] its standard error.
	G  []float64
	SE []float64
}

// Bound returns the paper's upper bound exp(t·(log(1+x)-x)) on G_t(φ).
func (l lemma2MGF) Bound(t int) float64 {
	return math.Exp(float64(t) * (math.Log(1+l.X) - l.X))
}

// estimateLemma2MGF runs `trials` independent BIPS runs of proc, a bips
// engine on an n-vertex graph, from source and estimates G_t(φ) for
// t = 0..tMax with φ = log(1+x), x = (1-λ)/2, small-set threshold m.
// Every trial steps all tMax rounds from one shared generator stream, so
// any two engines that consume the stream identically give bit-identical
// estimates.
func estimateLemma2MGF(proc process.Process, n int, source int32, lambda float64, m, tMax, trials int, seed uint64) (lemma2MGF, error) {
	if trials < 1 {
		return lemma2MGF{}, fmt.Errorf("expt: trials = %d, need >= 1", trials)
	}
	if tMax < 0 {
		return lemma2MGF{}, fmt.Errorf("expt: negative horizon %d", tMax)
	}
	if lambda < 0 || lambda >= 1 {
		return lemma2MGF{}, fmt.Errorf("expt: lambda = %v outside [0,1)", lambda)
	}
	if m < 1 || m > n/2 {
		return lemma2MGF{}, fmt.Errorf("expt: small-set threshold m = %d outside [1, n/2]", m)
	}
	x := (1 - lambda) / 2
	out := lemma2MGF{
		Phi: math.Log(1 + x),
		X:   x,
		M:   m,
		G:   make([]float64, tMax+1),
		SE:  make([]float64, tMax+1),
	}
	sums := make([]float64, tMax+1)
	sumSqs := make([]float64, tMax+1)
	r := rng.NewStream(seed, 0x1e2)
	for i := 0; i < trials; i++ {
		if err := proc.Reset(source); err != nil {
			return lemma2MGF{}, err
		}
		a0 := float64(proc.ReachedCount())
		alive := true // 1{E_{t-1}}: all sizes so far < m+1
		for t := 0; t <= tMax; t++ {
			if t > 0 {
				// The indicator freezes once any prior size exceeds m.
				if proc.ReachedCount() >= m+1 {
					alive = false
				}
				proc.Step(r)
			}
			if alive {
				v := math.Exp(-out.Phi * (float64(proc.ReachedCount()) - a0))
				sums[t] += v
				sumSqs[t] += v * v
			}
		}
	}
	nt := float64(trials)
	for t := 0; t <= tMax; t++ {
		mean := sums[t] / nt
		out.G[t] = mean
		variance := sumSqs[t]/nt - mean*mean
		if variance < 0 {
			variance = 0
		}
		out.SE[t] = math.Sqrt(variance / nt)
	}
	return out, nil
}
