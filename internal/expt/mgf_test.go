package expt

import (
	"math"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/process/difftest"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/spectral"
)

func mustBips(t *testing.T, g *graph.Graph, err error) process.Process {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	proc, err := process.New(process.BIPS, g, process.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

func TestEstimateLemma2MGFValidation(t *testing.T) {
	g, err := graph.Complete(16)
	proc := mustBips(t, g, err)
	n := g.N()
	if _, err := estimateLemma2MGF(proc, n, 0, 0.5, 8, 5, 0, 1); err == nil {
		t.Fatal("zero trials should fail")
	}
	if _, err := estimateLemma2MGF(proc, n, 0, 0.5, 8, -1, 10, 1); err == nil {
		t.Fatal("negative horizon should fail")
	}
	if _, err := estimateLemma2MGF(proc, n, 0, 1.0, 8, 5, 10, 1); err == nil {
		t.Fatal("lambda = 1 should fail")
	}
	if _, err := estimateLemma2MGF(proc, n, 0, 0.5, 9, 5, 10, 1); err == nil {
		t.Fatal("m > n/2 should fail")
	}
	if _, err := estimateLemma2MGF(proc, n, 0, 0.5, 0, 5, 10, 1); err == nil {
		t.Fatal("m < 1 should fail")
	}
	if _, err := estimateLemma2MGF(proc, n, 99, 0.5, 8, 5, 10, 1); err == nil {
		t.Fatal("out-of-range source should fail")
	}
}

// TestLemma2MGFBoundHolds is the proof-engine check: on an expander, the
// Monte-Carlo exponential moment must stay below the paper's per-round
// contraction bound at every horizon.
func TestLemma2MGFBoundHolds(t *testing.T) {
	g, err := graph.Paley(101)
	proc := mustBips(t, g, err)
	lambda, err := spectral.LambdaMax(g, spectral.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 4000
	const tMax = 10
	mgf, err := estimateLemma2MGF(proc, g.N(), 0, lambda, g.N()/2, tMax, trials, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mgf.G[0] != 1 {
		t.Fatalf("G_0 = %v, want exactly 1", mgf.G[0])
	}
	for tt := 0; tt <= tMax; tt++ {
		bound := mgf.Bound(tt)
		if mgf.G[tt] > bound+3*mgf.SE[tt]+1e-12 {
			t.Fatalf("Lemma 2 bound violated at t=%d: G=%v > bound=%v (SE %v)", tt, mgf.G[tt], bound, mgf.SE[tt])
		}
	}
	// The moment must actually decay (contraction, not just a bound).
	if mgf.G[tMax] >= mgf.G[1] {
		t.Fatalf("no contraction: G_%d = %v >= G_1 = %v", tMax, mgf.G[tMax], mgf.G[1])
	}
}

func TestLemma2MGFBoundFormula(t *testing.T) {
	l := lemma2MGF{X: 0.25}
	if got := l.Bound(0); got != 1 {
		t.Fatalf("Bound(0) = %v, want 1", got)
	}
	want := math.Exp(2 * (math.Log(1.25) - 0.25))
	if math.Abs(l.Bound(2)-want) > 1e-12 {
		t.Fatalf("Bound(2) = %v, want %v", l.Bound(2), want)
	}
	// The bound is strictly decreasing in t for x > 0.
	if l.Bound(3) >= l.Bound(2) {
		t.Fatal("bound not decreasing")
	}
}

// TestLemma2MGFNativeMatchesReference: the estimator E15 runs on the
// native bips engine must give bit-identical G and SE to the reference
// engine driven from the same seed. The horizon is long enough that some
// trials infect the whole graph and keep stepping, so the engines'
// stream use after completion is pinned too.
func TestLemma2MGFNativeMatchesReference(t *testing.T) {
	g, err := graph.RandomRegularConnected(128, 8, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range []process.Branching{{K: 2}, {K: 1, Rho: 0.5}} {
		cfg := process.Config{Branching: br}
		native, err := process.New(process.BIPS, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := difftest.NewCoreBips(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const tMax, trials, seed = 30, 300, 7
		want, err := estimateLemma2MGF(ref, g.N(), 0, 0.6, g.N()/2, tMax, trials, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := estimateLemma2MGF(native, g.N(), 0, 0.6, g.N()/2, tMax, trials, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= tMax; i++ {
			if math.Float64bits(got.G[i]) != math.Float64bits(want.G[i]) ||
				math.Float64bits(got.SE[i]) != math.Float64bits(want.SE[i]) {
				t.Fatalf("%v t=%d: native (G %v, SE %v) != reference (G %v, SE %v)",
					br, i, got.G[i], got.SE[i], want.G[i], want.SE[i])
			}
		}
	}
}
