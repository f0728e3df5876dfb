package graph

import (
	"fmt"
	"math"
	"slices"

	"cobrawalk/internal/rng"
)

// RandomRegular returns a uniformly-ish random simple r-regular graph on n
// vertices using the Steger–Wormald pairing algorithm: maintain n·r stubs,
// repeatedly pair two random unused stubs whose pairing keeps the graph
// simple, and restart the whole construction in the rare event the final
// stubs admit no simple completion. For r = O(n^{1/3}) the output
// distribution is asymptotically uniform, and random r-regular graphs are
// near-Ramanujan w.h.p. (λ ≈ 2√(r-1)/r), which is what makes this family
// the paper's canonical expander.
//
// n·r must be even and r must satisfy 0 <= r < n. Connectivity is not
// guaranteed by the model (though it holds w.h.p. for r >= 3); callers that
// need connectivity should use RandomRegularConnected. Sizes past int32
// ids, 2·maxEdges arcs or physical memory fail before allocating anything.
func RandomRegular(n, r int, rand *rng.Rand) (*Graph, error) {
	if n <= 0 {
		return nil, errEmptyGraph
	}
	if r < 0 || r >= n {
		return nil, fmt.Errorf("graph: degree %d out of range [0,%d)", r, n)
	}
	name := fmt.Sprintf("random-regular(n=%d,r=%d)", n, r)
	if n > math.MaxInt32 || int64(n)*int64(r) > 2*maxEdges {
		return nil, fmt.Errorf("graph: %s exceeds int32 vertex ids or %d arcs", name, int64(2*maxEdges))
	}
	// The pairing holds 8 bytes per arc (stub and slot) and 12 per vertex.
	if need, mem := 8*uint64(n)*uint64(r)+12*uint64(n), totalMemory(); mem > 0 && need > mem {
		return nil, fmt.Errorf("graph: %s needs %d bytes, more than the machine's %d", name, need, mem)
	}
	if n*r%2 != 0 {
		return nil, fmt.Errorf("graph: n*r = %d*%d is odd; no regular graph exists", n, r)
	}
	const maxRestarts = 200
	for attempt := 0; attempt < maxRestarts; attempt++ {
		if nbr, ok := pairStubs(n, r, rand); ok {
			offsets := make([]int64, n+1)
			for v := range offsets {
				offsets[v] = int64(v) * int64(r)
			}
			return &Graph{name: name, offsets: offsets, neighbors: nbr}, nil
		}
	}
	return nil, fmt.Errorf("graph: random regular generation failed after %d restarts (n=%d, r=%d)", maxRestarts, n, r)
}

// pairStubs runs one Steger–Wormald attempt straight into CSR rows: v's row
// is nbr[v*r:(v+1)*r], its first fill[v] slots filled so far. It returns the
// rows sorted, or ok=false if the attempt got stuck and must restart.
func pairStubs(n, r int, rand *rng.Rand) ([]int32, bool) {
	total := n * r
	stubs := make([]int32, total)
	for i := range stubs {
		stubs[i] = int32(i / r)
	}
	nbr := make([]int32, total)
	fill := make([]int32, n)
	adjacent := func(u, v int32) bool {
		if fill[v] < fill[u] {
			u, v = v, u
		}
		return slices.Contains(nbr[int(u)*r:int(u)*r+int(fill[u])], v)
	}
	live := total // stubs[0:live] are unused
	failures := 0
	for live > 0 {
		i := rand.Intn(live)
		j := rand.Intn(live)
		u, v := stubs[i], stubs[j]
		if u == v || adjacent(u, v) {
			failures++
			// When random probing stalls, check exhaustively whether any
			// suitable pair remains among the live stubs; if not, restart.
			if failures > 16*live+64 {
				if !anySuitablePair(stubs[:live], adjacent) {
					return nil, false
				}
				failures = 0
			}
			continue
		}
		failures = 0
		nbr[int(u)*r+int(fill[u])] = v
		fill[u]++
		nbr[int(v)*r+int(fill[v])] = u
		fill[v]++
		// Remove the two stubs (order matters: remove the larger index
		// first so the swap does not disturb the other position).
		if i < j {
			i, j = j, i
		}
		stubs[i] = stubs[live-1]
		live--
		stubs[j] = stubs[live-1]
		live--
	}
	for lo := 0; lo < total; lo += r {
		slices.Sort(nbr[lo : lo+r])
	}
	return nbr, true
}

func anySuitablePair(live []int32, adjacent func(u, v int32) bool) bool {
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			if live[i] != live[j] && !adjacent(live[i], live[j]) {
				return true
			}
		}
	}
	return false
}

// RandomRegularConnected draws random r-regular graphs until one is
// connected. For r >= 3 the first draw is connected w.h.p., so the loop is
// cheap; a retry cap guards the (r <= 2) cases where connectivity is
// unlikely or impossible.
func RandomRegularConnected(n, r int, rand *rng.Rand) (*Graph, error) {
	const maxDraws = 100
	for i := 0; i < maxDraws; i++ {
		g, err := RandomRegular(n, r, rand)
		if err != nil {
			return nil, err
		}
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: no connected %d-regular graph on %d vertices after %d draws", r, n, maxDraws)
}

// ErdosRenyi returns a G(n, p) random graph: each of the C(n,2) possible
// edges is present independently with probability p. Used by tests that
// need unstructured irregular graphs. For small p the generator uses
// geometric edge skipping, so the cost is O(n + m) rather than O(n²).
func ErdosRenyi(n int, p float64, rand *rng.Rand) (*Graph, error) {
	if n <= 0 {
		return nil, errEmptyGraph
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: edge probability %v out of [0,1]", p)
	}
	b := NewBuilder(n, int(p*float64(n)*float64(n-1)/2)+16)
	if p == 0 {
		return b.Build(fmt.Sprintf("erdos-renyi(n=%d,p=%g)", n, p))
	}
	if p == 1 {
		return Complete(n)
	}
	// Enumerate pairs in row-major order, skipping ahead by Geometric(p)
	// misses between hits.
	total := int64(n) * int64(n-1) / 2
	idx := int64(rand.Geometric(p))
	for idx < total {
		u, v := unrankPair(idx, n)
		b.AddEdge(u, v)
		idx += 1 + int64(rand.Geometric(p))
	}
	return b.Build(fmt.Sprintf("erdos-renyi(n=%d,p=%g)", n, p))
}

// unrankPair maps a linear index in [0, C(n,2)) to the pair (u, v), u < v,
// enumerated in row-major order: (0,1), (0,2), ..., (0,n-1), (1,2), ...
func unrankPair(idx int64, n int) (int32, int32) {
	u := int64(0)
	rowLen := int64(n - 1)
	for idx >= rowLen {
		idx -= rowLen
		u++
		rowLen--
	}
	return int32(u), int32(u + 1 + idx)
}
