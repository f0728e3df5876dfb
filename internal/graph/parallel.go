package graph

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrDuplicateEdge is returned by ParallelFromEdges for repeated edges:
// unlike Builder (which collapses duplicates while sorting the whole
// edge list anyway), the parallel packer never materialises a globally
// sorted edge list, so a duplicate is a caller bug it reports rather
// than a convenience it absorbs.
var ErrDuplicateEdge = errors.New("graph: duplicate edge")

// ParallelFromEdges builds a CSR graph from an explicit undirected edge
// list using all three packing stages in parallel: atomic degree
// counting over edge shards, a serial O(n) prefix sum, atomic-cursor
// scatter of both arc directions, and per-vertex-range adjacency
// sorting. The scatter order is scheduling-dependent but the final sort
// makes the output canonical — the resulting graph is byte-identical to
// FromEdges on the same (duplicate-free) input regardless of worker
// count, which is what lets cmd/graphbuild pack big edge lists on all
// cores and still honour the determinism contract.
//
// workers ≤ 0 means GOMAXPROCS. Self-loops, out-of-range endpoints and
// duplicate edges are rejected.
func ParallelFromEdges(name string, n int, pairs [][2]int32, workers int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pairs) {
		workers = max(1, len(pairs))
	}

	// Stage 1: validate endpoints and count degrees. counts is shared and
	// updated atomically; contention is spread across n words, so for the
	// sparse graphs this system runs (m ≈ 4n..16n) the adds rarely collide.
	counts := make([]int64, n+1) // last slot unused; keeps v+1 indexing safe below
	errs := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (len(pairs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(pairs))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w int, part [][2]int32) {
			defer wg.Done()
			for _, p := range part {
				u, v := p[0], p[1]
				if u == v {
					errs[w] = fmt.Errorf("graph: self-loop at vertex %d", u)
					return
				}
				if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
					errs[w] = fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
					return
				}
				atomic.AddInt64(&counts[u], 1)
				atomic.AddInt64(&counts[v], 1)
			}
		}(w, pairs[lo:hi])
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}

	// Stage 2: serial prefix sum — O(n), never the bottleneck.
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + counts[v]
	}

	// Stage 3: scatter both directions of every edge through per-vertex
	// atomic cursors. counts is recycled as the cursor array.
	cursor := counts
	copy(cursor, offsets[:n])
	neighbors := make([]int32, offsets[n])
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(pairs))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(part [][2]int32) {
			defer wg.Done()
			for _, p := range part {
				u, v := p[0], p[1]
				neighbors[atomic.AddInt64(&cursor[u], 1)-1] = v
				neighbors[atomic.AddInt64(&cursor[v], 1)-1] = u
			}
		}(pairs[lo:hi])
	}
	wg.Wait()

	// Stage 4: sort each adjacency (restoring the canonical order the
	// scatter scrambled) and reject duplicates, in parallel over vertex
	// ranges.
	vchunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*vchunk, min((w+1)*vchunk, n)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for v := lo; v < hi; v++ {
				adj := neighbors[offsets[v]:offsets[v+1]]
				slices.Sort(adj)
				for i := 1; i < len(adj); i++ {
					if adj[i-1] == adj[i] {
						errs[w] = fmt.Errorf("%w: {%d,%d}", ErrDuplicateEdge, v, adj[i])
						return
					}
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return &Graph{name: name, offsets: offsets, neighbors: neighbors}, nil
}

// firstError returns the lowest-indexed non-nil error, making the
// reported failure independent of goroutine scheduling.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
