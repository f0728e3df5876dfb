package spectral

import (
	"math"
	"testing"

	"cobrawalk/internal/graph"
)

// closedFormLambda returns max_{1 ≤ j < count} |eig(j)|: λ_max of a graph
// whose transition eigenvalues are eig(0) = 1, eig(1), ..., eig(count-1).
func closedFormLambda(count int, eig func(j int) float64) float64 {
	best := 0.0
	for j := 1; j < count; j++ {
		best = math.Max(best, math.Abs(eig(j)))
	}
	return best
}

func torusLambda(a, b int) float64 {
	return closedFormLambda(a*b, func(j int) float64 {
		x, y := j/b, j%b
		return (math.Cos(2*math.Pi*float64(x)/float64(a)) + math.Cos(2*math.Pi*float64(y)/float64(b))) / 2
	})
}

// TestLambdaMaxClosedForm pins λ_max against the closed form on graphs
// where it is hard to reach: torus(511,3) has a gap of 3.8e-5 with the
// next eigenvalue 1.1e-4 below, torus(64,64) is bipartite (λ = 1), the
// circulant has a gap of 1.9e-4, and complete(256) has one repeated
// non-trivial eigenvalue -1/255 (a one-step invariant subspace). Both the
// default options and the experiments' reduced tolerance must land
// within 1e-9.
func TestLambdaMaxClosedForm(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"torus(511,3)", mustG(t)(graph.Torus(511, 3)), torusLambda(511, 3)},
		{"torus(64,64)", mustG(t)(graph.Torus(64, 64)), 1},
		{"circulant(512,{1,2})", mustG(t)(graph.Circulant(512, []int{1, 2})),
			closedFormLambda(512, func(j int) float64 {
				x := 2 * math.Pi * float64(j) / 512
				return (math.Cos(x) + math.Cos(2*x)) / 2
			})},
		{"complete(256)", mustG(t)(graph.Complete(256)), 1.0 / 255},
	}
	if want := (math.Cos(2*math.Pi/511) + 1) / 2; math.Abs(cases[0].want-want) > 1e-15 {
		t.Fatalf("torus(511,3) closed form %v, want %v", cases[0].want, want)
	}
	for _, tc := range cases {
		for _, opt := range []Options{{}, {Tol: 1e-9, MaxIter: 20000}} {
			got, err := LambdaMax(tc.g, opt)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("%s %+v: λmax = %.15f, want %.15f (off by %.2g)", tc.name, opt, got, tc.want, got-tc.want)
			}
		}
	}
}

// TestLanczosMaxIterCap: a run cut by MaxIter still returns Ritz values
// inside the true extremes.
func TestLanczosMaxIterCap(t *testing.T) {
	g := mustG(t)(graph.Torus(511, 3))
	l2, ln, err := Extremes(g, Options{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := torusLambda(511, 3); l2 > want || l2 < 0.5 {
		t.Fatalf("capped λ2 = %v, want in [0.5, %v]", l2, want)
	}
	if ln < -1 || ln > 0 {
		t.Fatalf("capped λn = %v, want in [-1, 0]", ln)
	}
}

func TestTridiagKnown(t *testing.T) {
	// 2x2: [[2,1],[1,2]] has eigenvalues 1 and 3, eigenvectors (1,∓1)/√2.
	two := tridiag{alpha: []float64{2, 2}, beta: []float64{1}}
	if got := two.eigenvalue(0); !approxEq(got, 1, 1e-15) {
		t.Fatalf("2x2 smallest = %v, want 1", got)
	}
	hi, s := two.top()
	if !approxEq(hi, 3, 1e-15) || !approxEq(s, 1/math.Sqrt2, 1e-15) {
		t.Fatalf("2x2 top = (%v, %v), want (3, 1/√2)", hi, s)
	}
	// The free chain tridiag(0, 1) of size n has eigenvalues
	// 2cos(kπ/(n+1)) with eigenvectors sin(jkπ/(n+1))·√(2/(n+1)).
	for _, n := range []int{1, 7, 40} {
		c := tridiag{alpha: make([]float64, n), beta: make([]float64, n-1)}
		for i := range c.beta {
			c.beta[i] = 1
		}
		for k := 1; k <= n; k++ {
			want := 2 * math.Cos(float64(k)*math.Pi/float64(n+1))
			got := c.eigenvalue(n - k)
			if !approxEq(got, want, 1e-14) {
				t.Fatalf("chain n=%d eigenvalue %d = %.15f, want %.15f", n, k, got, want)
			}
			wantS := math.Abs(math.Sin(float64(n*k)*math.Pi/float64(n+1))) * math.Sqrt(2/float64(n+1))
			if gotS := c.lastComponent(got); !approxEq(gotS, wantS, 1e-10) {
				t.Fatalf("chain n=%d |s_k| for eigenvalue %d = %.12f, want %.12f", n, k, gotS, wantS)
			}
		}
		for k := 0; k <= n; k++ {
			// Between eigenvalues k and k+1 (0 and n+1: outside).
			x := 2 * math.Cos((float64(k)+0.5)*math.Pi/float64(n+1))
			if got := c.countBelow(x); got != n-k {
				t.Fatalf("chain n=%d: %d eigenvalues below %v, want %d", n, got, x, n-k)
			}
		}
	}
}
