package graph

import "fmt"

// Complete returns the complete graph K_n: every pair of distinct vertices
// is adjacent, so the graph is (n-1)-regular. The paper treats K_n as the
// r = n-1 endpoint of the degree sweep in Theorem 1 and cites Dutta et
// al.'s O(log n) COBRA cover time on it.
func Complete(n int) (*Graph, error) {
	if n <= 0 {
		return nil, errEmptyGraph
	}
	b := NewBuilder(n, n*(n-1)/2)
	if b.err != nil {
		return nil, b.err // before the Θ(n²) edge loop
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.Build(fmt.Sprintf("complete(n=%d)", n))
}

// Cycle returns the cycle C_n (2-regular, n >= 3). Cycles have spectral gap
// Θ(1/n²) and are used to exercise the poorly-expanding end of the λ sweep.
func Cycle(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: cycle needs n >= 3, got %d", n)
	}
	b := NewBuilder(n, n)
	for v := 0; v < n; v++ {
		b.AddEdge(int32(v), int32((v+1)%n))
	}
	return b.Build(fmt.Sprintf("cycle(n=%d)", n))
}

// Path returns the path graph P_n (irregular: endpoints have degree 1).
func Path(n int) (*Graph, error) {
	if n <= 0 {
		return nil, errEmptyGraph
	}
	b := NewBuilder(n, n-1)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(int32(v), int32(v+1))
	}
	return b.Build(fmt.Sprintf("path(n=%d)", n))
}

// Circulant returns the circulant graph Circ(n; offsets): vertex v is
// adjacent to v±d (mod n) for every d in offsets. Offsets must lie in
// [1, n/2]; the offset n/2 (for even n) contributes a single edge per
// vertex. Degree is 2·|offsets|, minus 1 when n/2 is included. Circulants
// give a deterministic family whose spectrum is a sum of cosines, handy for
// spectral-toolkit validation and tunable-gap sweeps.
func Circulant(n int, offsets []int) (*Graph, error) {
	if n <= 0 {
		return nil, errEmptyGraph
	}
	seen := make(map[int]bool, len(offsets))
	b := NewBuilder(n, n*len(offsets))
	for _, d := range offsets {
		if d < 1 || d > n/2 {
			return nil, fmt.Errorf("graph: circulant offset %d out of range [1,%d]", d, n/2)
		}
		if seen[d] {
			return nil, fmt.Errorf("graph: duplicate circulant offset %d", d)
		}
		seen[d] = true
		for v := 0; v < n; v++ {
			b.AddEdge(int32(v), int32((v+d)%n))
		}
	}
	return b.Build(fmt.Sprintf("circulant(n=%d,offsets=%v)", n, offsets))
}

// CompleteBipartite returns K_{a,b}: sides {0..a-1} and {a..a+b-1} with all
// cross edges. K_{r,r} is r-regular and bipartite, so λ_max = 1; it marks
// the boundary case the paper's theorems exclude (experiment E10).
func CompleteBipartite(a, b int) (*Graph, error) {
	if a <= 0 || b <= 0 {
		return nil, fmt.Errorf("graph: complete bipartite needs positive sides, got (%d,%d)", a, b)
	}
	bl := NewBuilder(a+b, a*b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			bl.AddEdge(int32(u), int32(a+v))
		}
	}
	return bl.Build(fmt.Sprintf("complete-bipartite(a=%d,b=%d)", a, b))
}

// Star returns the star K_{1,n-1} with centre 0 (irregular; used in tests
// of non-regular behaviour).
func Star(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: star needs n >= 2, got %d", n)
	}
	b := NewBuilder(n, n-1)
	for v := 1; v < n; v++ {
		b.AddEdge(0, int32(v))
	}
	return b.Build(fmt.Sprintf("star(n=%d)", n))
}
