package spectral

import (
	"errors"
	"math"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// Options configures the iterative eigensolver. The zero value selects
// sensible defaults.
type Options struct {
	// Seed initialises the random starting vector. The default 0 is a
	// valid seed, so results are deterministic unless callers vary it.
	Seed uint64
	// MaxIter caps the Lanczos step count (default 50000). A run that
	// reaches the cap reports its current extreme Ritz values, which lie
	// inside the spectrum's extremes.
	MaxIter int
	// Tol is the stopping tolerance on the residual bound β_k·|s_k| of
	// both extreme Ritz pairs (default 1e-11). The bound caps the
	// eigenvalue error; the actual error is of order bound²/gap.
	Tol float64
}

func (o Options) maxIter() int {
	if o.MaxIter <= 0 {
		return 50000
	}
	return o.MaxIter
}

func (o Options) tol() float64 {
	if o.Tol <= 0 {
		return 1e-11
	}
	return o.Tol
}

// Extremes returns λ_2 (largest eigenvalue of the transition matrix after
// the trivial eigenvalue 1) and λ_n (the smallest). Graphs of 2 to 64
// vertices take the exact dense path; the rest run lanczos. For n == 1
// both are 0 by convention.
func Extremes(g *graph.Graph, opt Options) (lambda2, lambdaN float64, err error) {
	if n := g.N(); n > 1 && n <= 64 {
		eig, err := DenseSpectrum(g)
		if err != nil {
			return 0, 0, err
		}
		return eig[1], eig[n-1], nil
	}
	return lanczosExtremes(g, opt)
}

// LambdaMax returns λ = max_{i>=2} |λ_i|, the quantity the paper's bounds
// depend on. It always runs lanczos, with O(n) memory at any graph size:
// at n = 64 the dense path's Jacobi sweeps cost milliseconds, the
// recurrence microseconds, for the same accuracy.
func LambdaMax(g *graph.Graph, opt Options) (float64, error) {
	l2, ln, err := lanczosExtremes(g, opt)
	if err != nil {
		return 0, err
	}
	return math.Max(math.Abs(l2), math.Abs(ln)), nil
}

// lanczosExtremes validates g and returns lanczos's extreme Ritz values
// as (λ_2, λ_n), clamped to [-1, 1] to absorb roundoff.
func lanczosExtremes(g *graph.Graph, opt Options) (lambda2, lambdaN float64, err error) {
	switch g.N() {
	case 0:
		return 0, 0, errors.New("spectral: empty graph")
	case 1:
		return 0, 0, nil
	}
	op, err := NewOperator(g)
	if err != nil {
		return 0, 0, err
	}
	lambdaN, lambda2 = lanczos(op, opt)
	return clamp(lambda2, -1, 1), clamp(lambdaN, -1, 1), nil
}

// lanczos runs the symmetric Lanczos recurrence on N restricted to the
// complement of its top eigenvector and returns the smallest and largest
// Ritz values. It keeps three n-vectors: each step reorthogonalises the
// new vector locally against the current one and deflates the top
// eigenvector again, since roundoff would otherwise let the trivial
// eigenvalue 1 back in. The tridiagonal matrix T_k is kept as its α and β
// coefficients only. Every few steps the extreme eigenvalues of T_k are
// found by Sturm bisection, and the run stops once both residual bounds
// β_k·|s_k| (s_k the last component of the Ritz vector in T_k's basis)
// are below Tol, when β_k itself falls below Tol (an invariant subspace:
// every Ritz value is exact), or after MaxIter steps.
func lanczos(op *Operator, opt Options) (lo, hi float64) {
	n := op.N()
	tol, maxIter := opt.tol(), opt.maxIter()
	v := randomUnitDeflated(op, rng.New(opt.Seed))
	vPrev := make([]float64, n)
	w := make([]float64, n)
	var t tridiag
	next := 4 // step of the next convergence check
	for k := 1; ; k++ {
		op.Apply(v, w)
		alpha := dot(w, v)
		axpy(-alpha, v, w)
		if k > 1 {
			axpy(-t.beta[k-2], vPrev, w)
		}
		op.DeflateTop(w)
		c := dot(w, v)
		axpy(-c, v, w)
		t.alpha = append(t.alpha, alpha+c)
		beta := norm2(w)
		if beta < tol || k >= maxIter {
			return t.eigenvalue(0), t.eigenvalue(k - 1)
		}
		if k >= next {
			hi, sHi := t.top()
			lo, sLo := t.bottom()
			if beta*math.Abs(sHi) < tol && beta*math.Abs(sLo) < tol {
				return lo, hi
			}
			next = k + max(4, k/8)
		}
		t.beta = append(t.beta, beta)
		scale(w, 1/beta)
		vPrev, v, w = v, w, vPrev
	}
}

func randomUnitDeflated(op *Operator, r *rng.Rand) []float64 {
	n := op.N()
	v := make([]float64, n)
	for {
		for i := range v {
			v[i] = r.NormFloat64()
		}
		op.DeflateTop(v)
		if nv := norm2(v); nv > 1e-9 {
			scale(v, 1/nv)
			return v
		}
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
