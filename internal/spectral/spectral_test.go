package spectral

import (
	"math"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

const eigTol = 1e-9

func mustG(t *testing.T) func(*graph.Graph, error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatalf("graph construction: %v", err)
		}
		return g
	}
}

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// assertSpectrum checks a computed spectrum against the expected multiset
// (both sorted descending) within tolerance.
func assertSpectrum(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("spectrum length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if !approxEq(got[i], want[i], tol) {
			t.Fatalf("eigenvalue[%d] = %.12f, want %.12f (got %v)", i, got[i], want[i], got)
		}
	}
}

func TestDenseSpectrumComplete(t *testing.T) {
	// K_n transition eigenvalues: 1 once, -1/(n-1) with multiplicity n-1.
	for _, n := range []int{2, 3, 5, 10, 25} {
		g := mustG(t)(graph.Complete(n))
		eig, err := DenseSpectrum(g)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		want[0] = 1
		for i := 1; i < n; i++ {
			want[i] = -1 / float64(n-1)
		}
		assertSpectrum(t, eig, want, eigTol)
	}
}

func TestDenseSpectrumCycle(t *testing.T) {
	// C_n eigenvalues: cos(2πk/n), k = 0..n-1.
	for _, n := range []int{3, 4, 6, 9, 16} {
		g := mustG(t)(graph.Cycle(n))
		eig, err := DenseSpectrum(g)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, 0, n)
		for k := 0; k < n; k++ {
			want = append(want, math.Cos(2*math.Pi*float64(k)/float64(n)))
		}
		sortDesc(want)
		assertSpectrum(t, eig, want, eigTol)
	}
}

func TestDenseSpectrumHypercube(t *testing.T) {
	// Q_d eigenvalues: (d-2i)/d with multiplicity C(d,i).
	for _, d := range []int{2, 3, 4, 5} {
		g := mustG(t)(graph.Hypercube(d))
		eig, err := DenseSpectrum(g)
		if err != nil {
			t.Fatal(err)
		}
		var want []float64
		binom := 1
		for i := 0; i <= d; i++ {
			for j := 0; j < binom; j++ {
				want = append(want, float64(d-2*i)/float64(d))
			}
			binom = binom * (d - i) / (i + 1)
		}
		sortDesc(want)
		assertSpectrum(t, eig, want, eigTol)
	}
}

func TestDenseSpectrumPetersen(t *testing.T) {
	g := mustG(t)(graph.Petersen())
	eig, err := DenseSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1}
	for i := 0; i < 5; i++ {
		want = append(want, 1.0/3)
	}
	for i := 0; i < 4; i++ {
		want = append(want, -2.0/3)
	}
	assertSpectrum(t, eig, want, eigTol)
}

func TestDenseSpectrumCompleteBipartite(t *testing.T) {
	// K_{a,b} normalised spectrum: {1, 0 (×(a+b-2)), -1}.
	g := mustG(t)(graph.CompleteBipartite(3, 4))
	eig, err := DenseSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 7)
	want[0], want[6] = 1, -1
	assertSpectrum(t, eig, want, eigTol)
}

func TestDenseSpectrumStar(t *testing.T) {
	// The star is K_{1,m}: {1, 0 (×(m-1)), -1}. Exercises irregular
	// normalisation.
	g := mustG(t)(graph.Star(6))
	eig, err := DenseSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 6)
	want[0], want[5] = 1, -1
	assertSpectrum(t, eig, want, eigTol)
}

func TestDenseSpectrumPaley(t *testing.T) {
	// Paley(q) adjacency eigenvalues (q-1)/2 and (-1±√q)/2; divide by
	// degree (q-1)/2 for the transition spectrum.
	q := 13
	g := mustG(t)(graph.Paley(q))
	eig, err := DenseSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	deg := float64(q-1) / 2
	plus := (-1 + math.Sqrt(float64(q))) / 2 / deg
	minus := (-1 - math.Sqrt(float64(q))) / 2 / deg
	if !approxEq(eig[0], 1, eigTol) {
		t.Fatalf("λ1 = %v", eig[0])
	}
	// (q-1)/2 eigenvalues at plus, (q-1)/2 at minus.
	for i := 1; i <= (q-1)/2; i++ {
		if !approxEq(eig[i], plus, eigTol) {
			t.Fatalf("λ%d = %.12f, want %.12f", i, eig[i], plus)
		}
	}
	for i := (q+1)/2 + 1; i < q; i++ {
		if !approxEq(eig[i], minus, eigTol) {
			t.Fatalf("λ%d = %.12f, want %.12f", i, eig[i], minus)
		}
	}
}

func TestDenseSpectrumTorus(t *testing.T) {
	// Torus(a,b) eigenvalues: (cos(2πi/a) + cos(2πj/b))/2.
	a, b := 4, 5
	g := mustG(t)(graph.Torus(a, b))
	eig, err := DenseSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			want = append(want, (math.Cos(2*math.Pi*float64(i)/float64(a))+math.Cos(2*math.Pi*float64(j)/float64(b)))/2)
		}
	}
	sortDesc(want)
	assertSpectrum(t, eig, want, eigTol)
}

func TestSpectrumBasicInvariants(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 5; trial++ {
		g, err := graph.RandomRegularConnected(60, 4, r)
		if err != nil {
			t.Fatal(err)
		}
		eig, err := DenseSpectrum(g)
		if err != nil {
			t.Fatal(err)
		}
		// λ1 = 1; all eigenvalues in [-1, 1]; trace = 0 (no self-loops).
		if !approxEq(eig[0], 1, eigTol) {
			t.Fatalf("λ1 = %v, want 1", eig[0])
		}
		trace := 0.0
		for _, l := range eig {
			if l < -1-eigTol || l > 1+eigTol {
				t.Fatalf("eigenvalue %v outside [-1,1]", l)
			}
			trace += l
		}
		if !approxEq(trace, 0, 1e-7) {
			t.Fatalf("trace = %v, want 0", trace)
		}
		// trace(N²) = Σλ² = n/r for r-regular simple graphs.
		sumSq := 0.0
		for _, l := range eig {
			sumSq += l * l
		}
		if want := float64(g.N()) / 4.0; !approxEq(sumSq, want, 1e-7) {
			t.Fatalf("Σλ² = %v, want %v", sumSq, want)
		}
	}
}

func TestDisconnectedLambda2IsOne(t *testing.T) {
	g, err := graph.FromEdges("2tri", 6, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	if err != nil {
		t.Fatal(err)
	}
	eig, err := DenseSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(eig[1], 1, eigTol) {
		t.Fatalf("disconnected λ2 = %v, want 1", eig[1])
	}
}

func TestExtremesMatchesDense(t *testing.T) {
	// Lanczos on mid-size graphs must match the dense solver's extremes.
	r := rng.New(17)
	graphs := []*graph.Graph{
		mustG(t)(graph.RandomRegularConnected(200, 6, r)),
		mustG(t)(graph.Torus(10, 12)),
		mustG(t)(graph.Circulant(150, []int{1, 2, 3})),
		mustG(t)(graph.Hypercube(7)),
		mustG(t)(graph.CompleteBipartite(40, 40)),
	}
	for _, g := range graphs {
		eig, err := DenseSpectrum(g)
		if err != nil {
			t.Fatalf("%s: dense: %v", g.Name(), err)
		}
		l2, ln, err := Extremes(g, Options{})
		if err != nil {
			t.Fatalf("%s: lanczos: %v", g.Name(), err)
		}
		if !approxEq(l2, eig[1], 1e-7) {
			t.Errorf("%s: λ2 lanczos %.10f vs dense %.10f", g.Name(), l2, eig[1])
		}
		if !approxEq(ln, eig[len(eig)-1], 1e-7) {
			t.Errorf("%s: λn lanczos %.10f vs dense %.10f", g.Name(), ln, eig[len(eig)-1])
		}
	}
}

func TestExtremesSmallGraphDensePath(t *testing.T) {
	g := mustG(t)(graph.Petersen())
	l2, ln, err := Extremes(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(l2, 1.0/3, eigTol) || !approxEq(ln, -2.0/3, eigTol) {
		t.Fatalf("Petersen extremes = (%v, %v), want (1/3, -2/3)", l2, ln)
	}
}

func TestExtremesSingleVertex(t *testing.T) {
	g, err := graph.FromEdges("k1", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Extremes(g, Options{}); err == nil {
		t.Skip("isolated vertex accepted") // K1 has an isolated vertex
	}
}

func TestLambdaMaxKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"petersen", mustG(t)(graph.Petersen()), 2.0 / 3},
		{"K10", mustG(t)(graph.Complete(10)), 1.0 / 9},
		{"C12", mustG(t)(graph.Cycle(12)), 1}, // bipartite: λn = -1
		{"C15", mustG(t)(graph.Cycle(15)), math.Abs(math.Cos(2 * math.Pi * 7 / 15))},
		{"K55", mustG(t)(graph.CompleteBipartite(5, 5)), 1},
		{"Q4", mustG(t)(graph.Hypercube(4)), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := LambdaMax(tc.g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !approxEq(got, tc.want, 1e-6) {
				t.Fatalf("λmax = %.10f, want %.10f", got, tc.want)
			}
		})
	}
}

func TestLambdaMaxMatchesDenseOnRandom(t *testing.T) {
	r := rng.New(77)
	for _, deg := range []int{3, 5, 8} {
		g, err := graph.RandomRegularConnected(120, deg, r)
		if err != nil {
			t.Fatal(err)
		}
		eig, err := DenseSpectrum(g)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Max(math.Abs(eig[1]), math.Abs(eig[len(eig)-1]))
		got, err := LambdaMax(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(got, want, 1e-6) {
			t.Fatalf("deg %d: λmax power %.10f vs dense %.10f", deg, got, want)
		}
	}
}

func TestRandomRegularNearRamanujan(t *testing.T) {
	// Random r-regular graphs satisfy λ ≤ (2√(r-1) + o(1))/r w.h.p.
	// (Friedman's theorem). Allow 20% slack for finite n.
	r := rng.New(5)
	for _, deg := range []int{4, 8, 16} {
		g, err := graph.RandomRegularConnected(400, deg, r)
		if err != nil {
			t.Fatal(err)
		}
		lmax, err := LambdaMax(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bound := 2 * math.Sqrt(float64(deg-1)) / float64(deg) * 1.2
		if lmax > bound {
			t.Errorf("deg %d: λmax = %.4f exceeds Ramanujan-ish bound %.4f", deg, lmax, bound)
		}
		if lmax <= 0 {
			t.Errorf("deg %d: λmax = %v not positive", deg, lmax)
		}
	}
}

func TestOperatorErrors(t *testing.T) {
	if _, err := NewOperator(&graph.Graph{}); err == nil {
		t.Fatal("empty graph should fail")
	}
	g, err := graph.FromEdges("iso", 3, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOperator(g); err == nil {
		t.Fatal("isolated vertex should fail")
	}
	if _, err := DenseSpectrum(g); err == nil {
		t.Fatal("DenseSpectrum should propagate isolated-vertex error")
	}
}

func TestDenseLimit(t *testing.T) {
	r := rng.New(3)
	g, err := graph.RandomRegular(denseLimit+2, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DenseSpectrum(g); err == nil {
		t.Fatal("dense solver should refuse n > denseLimit")
	}
}

func TestAnalyzePetersen(t *testing.T) {
	g := mustG(t)(graph.Petersen())
	rep, err := Analyze(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 10 || rep.M != 15 || rep.Degree != 3 {
		t.Fatalf("report basics: %+v", rep)
	}
	if !approxEq(rep.Lambda2, 1.0/3, eigTol) || !approxEq(rep.LambdaN, -2.0/3, eigTol) {
		t.Fatalf("extremes: %+v", rep)
	}
	if !approxEq(rep.LambdaMax, 2.0/3, eigTol) || !approxEq(rep.Gap, 1.0/3, eigTol) {
		t.Fatalf("gap: %+v", rep)
	}
	if !rep.Connected || rep.Bipartite {
		t.Fatalf("flags: %+v", rep)
	}
	// T = log(10)/(1/3)³ = 27·log 10.
	if want := 27 * math.Log(10); !approxEq(rep.TheoremT(), want, 1e-6) {
		t.Fatalf("TheoremT = %v, want %v", rep.TheoremT(), want)
	}
	if !rep.SatisfiesGapCondition(0.5) {
		t.Fatal("Petersen should satisfy modest gap condition")
	}
	// Cheeger sandwich must be ordered.
	if rep.CheegerLo > rep.CheegerHi {
		t.Fatalf("Cheeger bounds inverted: %+v", rep)
	}
}

func TestAnalyzeBipartiteFlags(t *testing.T) {
	g := mustG(t)(graph.Hypercube(5))
	rep, err := Analyze(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Bipartite {
		t.Fatal("hypercube should be flagged bipartite")
	}
	if !approxEq(rep.LambdaN, -1, 1e-7) || !approxEq(rep.LambdaMax, 1, 1e-7) {
		t.Fatalf("bipartite extremes: %+v", rep)
	}
	if !math.IsInf(rep.MixingTimeUB, 1) {
		t.Fatalf("MixingTimeUB should be +Inf at gap 0, got %v", rep.MixingTimeUB)
	}
	if !math.IsInf(rep.TheoremT(), 1) {
		t.Fatal("TheoremT should be +Inf at gap 0")
	}
}

func TestAnalyzeLargeUsesLanczos(t *testing.T) {
	r := rng.New(11)
	g, err := graph.RandomRegularConnected(600, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LambdaMax <= 0 || rep.LambdaMax >= 1 {
		t.Fatalf("λmax = %v out of (0,1)", rep.LambdaMax)
	}
	// λ ≈ 2√7/8 ≈ 0.66 for random 8-regular graphs, so the gap is ≈ 0.34.
	if rep.Gap <= 0.25 || rep.Gap >= 0.45 {
		t.Fatalf("8-regular expander gap = %v, expected ≈ 0.34", rep.Gap)
	}
}

func sortDesc(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j-1] < x[j]; j-- {
			x[j-1], x[j] = x[j], x[j-1]
		}
	}
}
