package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Builder accumulates undirected edges and produces a validated Graph.
// Duplicate edge insertions are tolerated and collapsed at Build time;
// self-loops are rejected immediately.
//
// The zero value is ready to use, but NewBuilder pre-sizes internal storage
// and fixes the vertex count up front, which generators prefer.
type Builder struct {
	n     int
	edges []edge
	err   error
}

type edge struct{ u, v int32 }

// maxEdges bounds the edges one Builder can hold: its edge list, at 8
// bytes per edge, must fit in the 2^48 bytes the Go runtime can allocate
// on 64-bit platforms.
const maxEdges = 1 << 45

// NewBuilder returns a Builder for a graph on n vertices, with capacity for
// edgeHint undirected edges. A vertex count beyond the int32 vertex ids or
// an edge hint beyond maxEdges latches an error instead of allocating, so
// generators can check b.err before looping over the edges.
func NewBuilder(n, edgeHint int) *Builder {
	b := &Builder{n: n}
	switch {
	case n < 0:
		b.err = fmt.Errorf("graph: negative vertex count %d", n)
	case n > math.MaxInt32:
		b.err = fmt.Errorf("graph: %d vertices exceed int32 vertex ids", n)
	case int64(edgeHint) > maxEdges:
		b.err = fmt.Errorf("graph: %d edges exceed the %d one graph can hold", edgeHint, int64(maxEdges))
	case edgeHint > 0:
		b.edges = make([]edge, 0, edgeHint)
	}
	return b
}

// AddEdge records the undirected edge {u, v}. Errors (out-of-range ids,
// self-loops) are latched and reported by Build, so generator loops do not
// need per-call error handling.
func (b *Builder) AddEdge(u, v int32) {
	if b.err != nil {
		return
	}
	if u == v {
		b.err = fmt.Errorf("graph: self-loop at vertex %d", u)
		return
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		b.err = fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, edge{u, v})
}

// Build assembles the CSR graph, deduplicating edges. name labels the graph
// for diagnostics and experiment tables.
func (b *Builder) Build(name string) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	slices.SortFunc(b.edges, func(x, y edge) int {
		if c := cmp.Compare(x.u, y.u); c != 0 {
			return c
		}
		return cmp.Compare(x.v, y.v)
	})
	b.edges = slices.Compact(b.edges)

	degrees := make([]int64, b.n+1)
	for _, e := range b.edges {
		degrees[e.u+1]++
		degrees[e.v+1]++
	}
	offsets := make([]int64, b.n+1)
	for i := 1; i <= b.n; i++ {
		offsets[i] = offsets[i-1] + degrees[i]
	}
	neighbors := make([]int32, offsets[b.n])
	cursor := make([]int64, b.n)
	copy(cursor, offsets[:b.n])
	for _, e := range b.edges {
		neighbors[cursor[e.u]] = e.v
		cursor[e.u]++
		neighbors[cursor[e.v]] = e.u
		cursor[e.v]++
	}
	g := &Graph{name: name, offsets: offsets, neighbors: neighbors}
	// Edges were inserted in global (u,v) order, so each adjacency list is
	// sorted for the u-side but interleaved for the v-side; sort per vertex
	// to restore the strict ordering invariant.
	for v := int32(0); v < int32(b.n); v++ {
		slices.Sort(g.neighbors[offsets[v]:offsets[v+1]])
	}
	return g, nil
}

// FromAdjacency builds a graph from an adjacency list description. The
// adjacency may list each edge in one or both directions; symmetry is
// restored automatically. It is primarily a convenience for tests.
func FromAdjacency(name string, adj [][]int32) (*Graph, error) {
	b := NewBuilder(len(adj), 0)
	for u, row := range adj {
		for _, v := range row {
			b.AddEdge(int32(u), v)
		}
	}
	return b.Build(name)
}

// FromEdges builds a graph on n vertices from an explicit edge list given
// as (u, v) pairs. It is a convenience wrapper over Builder.
func FromEdges(name string, n int, pairs [][2]int32) (*Graph, error) {
	b := NewBuilder(n, len(pairs))
	for _, p := range pairs {
		b.AddEdge(p[0], p[1])
	}
	return b.Build(name)
}

// errEmptyGraph guards generators against zero-vertex requests.
var errEmptyGraph = errors.New("graph: vertex count must be positive")
