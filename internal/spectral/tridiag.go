package spectral

import "math"

// tridiag is a symmetric tridiagonal matrix — the Lanczos T_k — with
// diagonal alpha and beta[i] coupling rows i and i+1. The Lanczos loop
// appends to beta only after the convergence check of a step, so
// len(beta) == len(alpha)-1 whenever the methods below run.
type tridiag struct {
	alpha, beta []float64
}

// pivotFloor replaces a zero pivot in the Sturm count, as LAPACK's dstebz
// does, so the next quotient stays finite (the couplings are at most 1 in
// magnitude, so β²/pivotFloor cannot overflow).
const pivotFloor = 1e-290

// countBelow returns how many eigenvalues of t are smaller than x: the
// number of negative pivots of the LDLᵀ factorisation of t - x·I (Sylvester's
// law of inertia; the Sturm sequence count).
func (t *tridiag) countBelow(x float64) int {
	count := 0
	d := 1.0
	for i, a := range t.alpha {
		if i == 0 {
			d = a - x
		} else {
			d = a - x - t.beta[i-1]*t.beta[i-1]/d
		}
		if math.Abs(d) < pivotFloor {
			d = -pivotFloor
		}
		if d < 0 {
			count++
		}
	}
	return count
}

// eigenvalue returns the j-th smallest eigenvalue of t (0-based) by
// bisection on the Sturm count, to full floating-point resolution. The
// starting bracket is the Gershgorin interval.
func (t *tridiag) eigenvalue(j int) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, a := range t.alpha {
		r := 0.0
		if i > 0 {
			r += math.Abs(t.beta[i-1])
		}
		if i < len(t.beta) {
			r += math.Abs(t.beta[i])
		}
		lo, hi = math.Min(lo, a-r), math.Max(hi, a+r)
	}
	// Invariant: countBelow(lo) <= j < countBelow(hi), widened by a hair
	// so the Gershgorin end points themselves satisfy it.
	lo -= 1e-12 + math.Abs(lo)*1e-12
	hi += 1e-12 + math.Abs(hi)*1e-12
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			return hi
		}
		if t.countBelow(mid) > j {
			hi = mid
		} else {
			lo = mid
		}
	}
}

// lastComponent returns |s_k|, the magnitude of the last component of the
// unit eigenvector of t for its eigenvalue theta. The eigenvector is run
// by the three-term recurrence from the bottom row up, starting from
// u_k = 1 and dropping the first row's equation. For a converged Ritz pair
// the components grow going up, so this direction is the numerically
// stable one; only the running sum of squares is kept, rescaled as it
// grows.
func (t *tridiag) lastComponent(theta float64) float64 {
	k := len(t.alpha)
	if k == 1 {
		return 1
	}
	last := 1.0 // u_k under the current scaling
	below, cur := 0.0, 1.0
	sumSq := 1.0
	for j := k - 1; j >= 1; j-- {
		// Row j: β_{j-1}·u_{j-1} + α_j·u_j + β_j·u_{j+1} = θ·u_j.
		up := (theta - t.alpha[j]) * cur
		if j < k-1 {
			up -= t.beta[j] * below
		}
		up /= t.beta[j-1]
		below, cur = cur, up
		sumSq += up * up
		if math.Abs(up) > 1e150 {
			const s = 1e-150
			below, cur, last = below*s, cur*s, last*s
			sumSq *= s * s
		}
	}
	return math.Abs(last) / math.Sqrt(sumSq)
}

// top returns the largest eigenvalue of t and its |s_k|.
func (t *tridiag) top() (theta, s float64) {
	theta = t.eigenvalue(len(t.alpha) - 1)
	return theta, t.lastComponent(theta)
}

// bottom returns the smallest eigenvalue of t and its |s_k|.
func (t *tridiag) bottom() (theta, s float64) {
	theta = t.eigenvalue(0)
	return theta, t.lastComponent(theta)
}
