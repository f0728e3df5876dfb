package difftest

import (
	"errors"
	"fmt"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
)

// chunkGraphs are the multi-chunk graphs of the kernel suite: every
// other grid graph fits in one kernelChunk (2048 items), so only these
// cross chunk boundaries — in the frontier/candidate grids and, on
// bips-par pull rounds, the vertex-range grid. rand-reg d=8 takes the
// pow2 bulk-draw path, d=3 the non-pow2 sampler, and the grid graph
// (corner, edge and interior degrees 2/3/4; n = 9271, a multiple of
// neither 64 nor 2048) the per-vertex offsets path with a partial last
// chunk and a partial last bitset word.
func chunkGraphs(t testing.TB) []*graph.Graph {
	t.Helper()
	var gs []*graph.Graph
	for _, d := range []int{3, 8} {
		g, err := graph.RandomRegularConnected(1<<13, d, rng.New(uint64(8192*100+d)))
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	g, err := graph.Grid(127, 73)
	if err != nil {
		t.Fatal(err)
	}
	return append(gs, g)
}

// roundModer is implemented by the kernel engines: rounds since Reset
// on the sparse path (bips-par push rounds, cobra-par discovery-order
// frontiers) and on the dense one (pull rounds, ascending frontiers).
type roundModer interface {
	RoundModes() (sparse, dense int)
}

// capturing wraps factory so the engine it builds at `workers` kernel
// workers is stored in *last.
func capturing(factory process.Factory, workers int, last *process.Process) process.Factory {
	return func(g *graph.Graph, cfg process.Config) (process.Process, error) {
		p, err := factory(g, cfg)
		if err == nil && cfg.KernelWorkers == workers {
			*last = p
		}
		return p, err
	}
}

// checkBothModes fails unless the captured engine's last run took at
// least one sparse and one dense round.
func checkBothModes(t *testing.T, p process.Process, what string) {
	t.Helper()
	sparse, dense := p.(roundModer).RoundModes()
	if sparse == 0 || dense == 0 {
		t.Errorf("%s: %d sparse and %d dense rounds, want both paths taken", what, sparse, dense)
	}
}

// grows reports whether a branching makes the active set grow: at K=1,
// Rho=0 cobra is one coalescing walker and BIPS has no drift, so
// neither ever reaches a dense round.
func grows(br process.Branching) bool { return br.K > 1 || br.Rho > 0 }

// roundCap bounds a kernel grid run. Non-growing runs on the multi-chunk
// graphs would otherwise walk for 2^14 rounds of single-chunk work that
// the small grid already covers; 256 rounds keep them in the suite at a
// fraction of the cost.
func roundCap(chunked bool, br process.Branching) int {
	if chunked && !grows(br) {
		return 256
	}
	return 1 << 14
}

// startSets are the start sets every kernel grid case runs: vertex 0
// alone, a deduplicating multi-vertex set, a two-vertex set spanning
// the id range, and one whose first vertex (the BIPS source) lies in a
// later chunk of a multi-chunk graph.
func startSets(n int) [][]int32 {
	return [][]int32{{0}, {0, int32(n / 2), 0}, {1, int32(n - 1)}, {int32(n - n/4 + 1), 1}}
}

// TestKernelWorkerInvarianceCobra pins the parallel COBRA kernel's
// determinism contract across the family × size × degree × branching
// grid plus the multi-chunk graphs: one worker versus eight workers must
// be byte-identical in every observable — reached sets after every
// round, transmissions, trajectories, trial-generator states — including
// a Reset rerun, a deduplicating multi-vertex start set and a start in a
// later chunk. On the multi-chunk graphs every growing run must take
// both frontier orders.
func TestKernelWorkerInvarianceCobra(t *testing.T) {
	grid := gridGraphs(t)
	for gi, g := range append(grid, chunkGraphs(t)...) {
		chunked := gi >= len(grid)
		for _, br := range branchings {
			g, br := g, br
			t.Run(fmt.Sprintf("%s/%s", g.Name(), br), func(t *testing.T) {
				t.Parallel()
				cfg := process.Config{Branching: br}
				var last process.Process
				factory := capturing(nativeFactory(t, process.CobraPar), 8, &last)
				seed := uint64(len(g.Name())) + uint64(br.K)<<8 + 13
				for i, starts := range startSets(g.N()) {
					if err := LockstepWorkers(g, cfg, factory, 1, 8, seed+uint64(i), roundCap(chunked, br), starts...); err != nil {
						t.Fatal(err)
					}
					if chunked && grows(br) {
						checkBothModes(t, last, fmt.Sprintf("starts %v", starts))
					}
				}
			})
		}
	}
}

// TestKernelWorkerInvarianceBips is the BIPS half of the grid, on both
// the exact-sampling and the closed-form fast path; on the multi-chunk
// graphs every growing run must take both push and pull rounds.
func TestKernelWorkerInvarianceBips(t *testing.T) {
	grid := gridGraphs(t)
	for gi, g := range append(grid, chunkGraphs(t)...) {
		chunked := gi >= len(grid)
		for _, br := range branchings {
			for _, fast := range []bool{false, true} {
				g, br, fast := g, br, fast
				name := fmt.Sprintf("%s/%s/fast=%v", g.Name(), br, fast)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := process.Config{Branching: br, FastSampling: fast}
					var last process.Process
					factory := capturing(nativeFactory(t, process.BIPSPar), 8, &last)
					seed := uint64(len(g.Name())) + uint64(br.K)<<8 + 29
					for i, starts := range startSets(g.N()) {
						if err := LockstepWorkers(g, cfg, factory, 1, 8, seed+uint64(i), roundCap(chunked, br), starts...); err != nil {
							t.Fatal(err)
						}
						if chunked && grows(br) {
							checkBothModes(t, last, fmt.Sprintf("starts %v", starts))
						}
					}
				})
			}
		}
	}
}

// TestKernelWorkerCountsPairwise sweeps intermediate worker counts: any
// count must agree with one worker, not just 8 (a bug that only bites
// when chunks outnumber workers by a non-integer ratio would hide from a
// single pairing). It runs one small graph and the multi-chunk graphs,
// where the chunk grids are several chunks wide.
func TestKernelWorkerCountsPairwise(t *testing.T) {
	small, err := graph.RandomRegularConnected(256, 8, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		fast bool
	}{{process.CobraPar, false}, {process.BIPSPar, false}, {process.BIPSPar, true}}
	for _, g := range append([]*graph.Graph{small}, chunkGraphs(t)...) {
		for _, c := range cases {
			g, c := g, c
			t.Run(fmt.Sprintf("%s/%s/fast=%v", g.Name(), c.name, c.fast), func(t *testing.T) {
				t.Parallel()
				factory := nativeFactory(t, c.name)
				cfg := process.Config{FastSampling: c.fast}
				starts := startSets(g.N())[3]
				for _, w := range []int{2, 3, 5, 8, 16} {
					if err := LockstepWorkers(g, cfg, factory, 1, w, 77, 1<<14, starts...); err != nil {
						t.Fatalf("workers 1 vs %d: %v", w, err)
					}
				}
			})
		}
	}
}

// TestLockstepWorkersHasTeeth proves the harness detects divergence: a
// factory that skews the branching factor on the 8-worker side must
// fail with a *Mismatch naming the diverging field.
func TestLockstepWorkersHasTeeth(t *testing.T) {
	g, err := graph.RandomRegularConnected(128, 4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	skewed := func(g *graph.Graph, cfg process.Config) (process.Process, error) {
		if cfg.KernelWorkers == 8 {
			cfg.Branching = process.Branching{K: 3}
		}
		return nativeFactory(t, process.CobraPar)(g, cfg)
	}
	err = LockstepWorkers(g, process.Config{Branching: process.Branching{K: 2}}, skewed, 1, 8, 11, 1<<14, 0)
	var mm *Mismatch
	if !errors.As(err, &mm) {
		t.Fatalf("skewed kernel engine passed the lockstep harness: %v", err)
	}
}
