package graph

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"cobrawalk/internal/rng"
)

// checkInvariants verifies the structural invariants every generator must
// establish, plus the caller's expectations about size and regularity
// (wantReg < 0 means "irregular allowed").
func checkInvariants(t *testing.T, g *Graph, wantN, wantM, wantReg int) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: invalid: %v", g.Name(), err)
	}
	if g.N() != wantN {
		t.Fatalf("%s: N = %d, want %d", g.Name(), g.N(), wantN)
	}
	if wantM >= 0 && g.M() != wantM {
		t.Fatalf("%s: M = %d, want %d", g.Name(), g.M(), wantM)
	}
	if wantReg >= 0 {
		r, err := g.Regularity()
		if err != nil {
			t.Fatalf("%s: not regular: %v (hist %v)", g.Name(), err, g.DegreeHistogram())
		}
		if r != wantReg {
			t.Fatalf("%s: regularity = %d, want %d", g.Name(), r, wantReg)
		}
	}
	// Handshake lemma: sum of degrees = 2M.
	sum := 0
	for v := int32(0); v < int32(g.N()); v++ {
		sum += g.Degree(v)
	}
	if sum != 2*g.M() {
		t.Fatalf("%s: handshake violated: sum deg = %d, 2M = %d", g.Name(), sum, 2*g.M())
	}
}

func TestComplete(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 17, 64} {
		g := must(t)(Complete(n))
		checkInvariants(t, g, n, n*(n-1)/2, n-1)
		if n > 1 && g.Diameter() != 1 {
			t.Fatalf("K%d diameter = %d", n, g.Diameter())
		}
	}
	if _, err := Complete(0); err == nil {
		t.Fatal("Complete(0) should fail")
	}
}

func TestCycle(t *testing.T) {
	for _, n := range []int{3, 4, 5, 100} {
		g := must(t)(Cycle(n))
		checkInvariants(t, g, n, n, 2)
		if g.Diameter() != n/2 {
			t.Fatalf("C%d diameter = %d, want %d", n, g.Diameter(), n/2)
		}
		if got, want := g.IsBipartite(), n%2 == 0; got != want {
			t.Fatalf("C%d bipartite = %v, want %v", n, got, want)
		}
	}
	if _, err := Cycle(2); err == nil {
		t.Fatal("Cycle(2) should fail")
	}
}

func TestPathAndStar(t *testing.T) {
	p := must(t)(Path(6))
	checkInvariants(t, p, 6, 5, -1)
	if p.Diameter() != 5 {
		t.Fatalf("P6 diameter = %d", p.Diameter())
	}
	s := must(t)(Star(7))
	checkInvariants(t, s, 7, 6, -1)
	if s.Diameter() != 2 {
		t.Fatalf("star diameter = %d", s.Diameter())
	}
}

func TestCirculant(t *testing.T) {
	g := must(t)(Circulant(10, []int{1, 2}))
	checkInvariants(t, g, 10, 20, 4)
	// Offset n/2 contributes one edge per vertex: degree 2*1 + 1 = 3.
	h := must(t)(Circulant(8, []int{1, 4}))
	checkInvariants(t, h, 8, 12, 3)
	if _, err := Circulant(10, []int{0}); err == nil {
		t.Fatal("offset 0 should fail")
	}
	if _, err := Circulant(10, []int{6}); err == nil {
		t.Fatal("offset > n/2 should fail")
	}
	if _, err := Circulant(10, []int{2, 2}); err == nil {
		t.Fatal("duplicate offset should fail")
	}
}

// TestCompleteTooLarge: an unbuildable size is an error returned before
// the quadratic edge loop, not a makeslice panic.
func TestCompleteTooLarge(t *testing.T) {
	for _, n := range []int{2_000_000_000, math.MaxInt32 + 1} {
		if _, err := Complete(n); err == nil {
			t.Fatalf("Complete(%d) succeeded, want an error", n)
		}
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := must(t)(CompleteBipartite(3, 3))
	checkInvariants(t, g, 6, 9, 3)
	if !g.IsBipartite() {
		t.Fatal("K33 not bipartite?")
	}
	h := must(t)(CompleteBipartite(2, 5))
	checkInvariants(t, h, 7, 10, -1)
	if _, err := CompleteBipartite(0, 3); err == nil {
		t.Fatal("empty side should fail")
	}
}

func TestHypercube(t *testing.T) {
	for d := 1; d <= 8; d++ {
		n := 1 << d
		g := must(t)(Hypercube(d))
		checkInvariants(t, g, n, n*d/2, d)
		if !g.IsBipartite() {
			t.Fatalf("Q%d should be bipartite", d)
		}
		if g.Diameter() != d {
			t.Fatalf("Q%d diameter = %d, want %d", d, g.Diameter(), d)
		}
	}
	if _, err := Hypercube(0); err == nil {
		t.Fatal("Hypercube(0) should fail")
	}
	if _, err := Hypercube(28); err == nil {
		t.Fatal("Hypercube(28) should fail (id overflow)")
	}
}

func TestTorus(t *testing.T) {
	g := must(t)(Torus(4, 4))
	checkInvariants(t, g, 16, 32, 4)
	if g.Diameter() != 4 {
		t.Fatalf("4x4 torus diameter = %d, want 4", g.Diameter())
	}
	g3 := must(t)(Torus(3, 4, 5))
	checkInvariants(t, g3, 60, 180, 6)
	ring := must(t)(Torus(9))
	checkInvariants(t, ring, 9, 9, 2) // 1-D torus is a cycle
	if _, err := Torus(2, 4); err == nil {
		t.Fatal("side 2 should fail (parallel edges)")
	}
	if _, err := Torus(); err == nil {
		t.Fatal("no sides should fail")
	}
}

func TestGrid(t *testing.T) {
	g := must(t)(Grid(3, 4))
	checkInvariants(t, g, 12, 17, -1) // 3*3 + 4*2 = 9+8 = 17 edges
	if g.Diameter() != 5 {
		t.Fatalf("3x4 grid diameter = %d, want 5", g.Diameter())
	}
	line := must(t)(Grid(7))
	checkInvariants(t, line, 7, 6, -1)
	single := must(t)(Grid(1, 1))
	checkInvariants(t, single, 1, 0, 0)
}

func TestPetersen(t *testing.T) {
	g := must(t)(Petersen())
	checkInvariants(t, g, 10, 15, 3)
	if g.Diameter() != 2 {
		t.Fatalf("Petersen diameter = %d, want 2", g.Diameter())
	}
	if g.IsBipartite() {
		t.Fatal("Petersen is not bipartite")
	}
}

func TestPrism(t *testing.T) {
	g := must(t)(PrismGraph())
	checkInvariants(t, g, 6, 9, 3)
	if g.IsBipartite() {
		t.Fatal("prism contains triangles")
	}
}

func TestPaley(t *testing.T) {
	for _, q := range []int{5, 13, 17, 29, 101} {
		g := must(t)(Paley(q))
		checkInvariants(t, g, q, q*(q-1)/4, (q-1)/2)
		if !g.IsConnected() {
			t.Fatalf("Paley(%d) disconnected", q)
		}
	}
	// Paley(5) is the 5-cycle.
	g := must(t)(Paley(5))
	if g.M() != 5 || !g.IsRegular() {
		t.Fatal("Paley(5) should be C5")
	}
	for _, bad := range []int{4, 7, 9, 15, 21} { // non-prime or ≢1 mod 4
		if _, err := Paley(bad); err == nil {
			t.Fatalf("Paley(%d) should fail", bad)
		}
	}
}

func TestMargulis(t *testing.T) {
	for _, m := range []int{2, 3, 5, 8} {
		g := must(t)(Margulis(m))
		if g.N() != m*m {
			t.Fatalf("Margulis(%d): N = %d", m, g.N())
		}
		if !g.IsConnected() {
			t.Fatalf("Margulis(%d) disconnected", m)
		}
		if g.MaxDegree() > 8 {
			t.Fatalf("Margulis(%d) degree %d > 8", m, g.MaxDegree())
		}
	}
	if _, err := Margulis(1); err == nil {
		t.Fatal("Margulis(1) should fail")
	}
}

func TestRingOfCliques(t *testing.T) {
	g := must(t)(RingOfCliques(4, 5))
	checkInvariants(t, g, 20, 4*10+4, -1)
	if !g.IsConnected() {
		t.Fatal("ring of cliques disconnected")
	}
	if _, err := RingOfCliques(2, 5); err == nil {
		t.Fatal("k=2 should fail")
	}
}

func TestBarbell(t *testing.T) {
	g := must(t)(Barbell(5, 3))
	checkInvariants(t, g, 13, 2*10+4, -1)
	if !g.IsConnected() {
		t.Fatal("barbell disconnected")
	}
	h := must(t)(Barbell(4, 0))
	checkInvariants(t, h, 8, 2*6+1, -1)
}

func TestRandomRegular(t *testing.T) {
	r := rng.New(42)
	cases := []struct{ n, deg int }{
		{10, 3}, {16, 4}, {50, 3}, {100, 8}, {64, 16}, {200, 5}, {6, 5},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d_r%d", tc.n, tc.deg), func(t *testing.T) {
			g, err := RandomRegular(tc.n, tc.deg, r)
			g = must(t)(g, err)
			checkInvariants(t, g, tc.n, tc.n*tc.deg/2, tc.deg)
		})
	}
	if _, err := RandomRegular(5, 3, r); err == nil {
		t.Fatal("odd n*r should fail")
	}
	if _, err := RandomRegular(5, 5, r); err == nil {
		t.Fatal("r >= n should fail")
	}
	g, err := RandomRegular(7, 0, r)
	g = must(t)(g, err)
	if g.M() != 0 {
		t.Fatal("0-regular graph should be empty")
	}
}

func TestRandomRegularConnected(t *testing.T) {
	r := rng.New(7)
	g, err := RandomRegularConnected(128, 3, r)
	g = must(t)(g, err)
	if !g.IsConnected() {
		t.Fatal("RandomRegularConnected returned disconnected graph")
	}
	checkInvariants(t, g, 128, 192, 3)
}

func TestRandomRegularDistributionSmoke(t *testing.T) {
	// On n=6, r=2 the generator must produce only disjoint-cycle covers
	// (C6, C3+C3, C4 would leave stubs...), and every output must be a
	// valid 2-regular graph. Also check both connected and disconnected
	// outcomes occur, i.e. the sampler is not collapsed onto one graph.
	r := rng.New(11)
	connected, disconnected := 0, 0
	for i := 0; i < 200; i++ {
		g, err := RandomRegular(6, 2, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if !g.IsRegular() {
			t.Fatal("non-regular output")
		}
		if g.IsConnected() {
			connected++
		} else {
			disconnected++
		}
	}
	if connected == 0 || disconnected == 0 {
		t.Fatalf("sampler collapsed: connected=%d disconnected=%d", connected, disconnected)
	}
}

func TestErdosRenyi(t *testing.T) {
	r := rng.New(13)
	g, err := ErdosRenyi(100, 0.1, r)
	g = must(t)(g, err)
	// Expected edges = C(100,2)*0.1 = 495; allow generous slack (4 sigma
	// of binomial is ~85).
	if g.M() < 350 || g.M() > 650 {
		t.Fatalf("G(100,0.1) has %d edges, expected ~495", g.M())
	}
	empty, err := ErdosRenyi(10, 0, r)
	empty = must(t)(empty, err)
	if empty.M() != 0 {
		t.Fatal("G(n,0) should have no edges")
	}
	full, err := ErdosRenyi(10, 1, r)
	full = must(t)(full, err)
	if full.M() != 45 {
		t.Fatal("G(n,1) should be complete")
	}
	if _, err := ErdosRenyi(10, 1.5, r); err == nil {
		t.Fatal("p > 1 should fail")
	}
}

func TestUnrankPair(t *testing.T) {
	n := 7
	idx := int64(0)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			gu, gv := unrankPair(idx, n)
			if int(gu) != u || int(gv) != v {
				t.Fatalf("unrankPair(%d) = (%d,%d), want (%d,%d)", idx, gu, gv, u, v)
			}
			idx++
		}
	}
}

// Property: every generator output validates, for fuzzed sizes.
func TestGeneratorInvariantsQuick(t *testing.T) {
	r := rng.New(99)
	f := func(nRaw, rRaw uint8) bool {
		n := int(nRaw%60) + 4
		deg := int(rRaw % 6) // 0..5
		if deg >= n {
			deg = n - 1
		}
		if n*deg%2 != 0 {
			deg-- // make n*r even
		}
		if deg < 0 {
			return true
		}
		g, err := RandomRegular(n, deg, r)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		reg, err := g.Regularity()
		return err == nil && reg == deg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
