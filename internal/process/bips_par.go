package process

import (
	"runtime"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// bipsParProc is the parallel-round-kernel variant of the native BIPS
// engine (bipsProc). Each round is a parallel-for over a chunk grid on a
// kernelPool, in one of two forms chosen by the density of A_t — the
// direction-optimising switch of Beamer et al. (SC'12):
//
//   - Push (sparse A_t, |A_t| < pullFrom): candidate collection scans
//     A_t's rows sequentially, exactly as bipsProc — Γ(A_t) minus the
//     source, in infected-list discovery order — and the grid is
//     kernelChunk-sized ranges of that candidate list. A worker claiming
//     chunk c samples its candidates' K neighbours against A_t into the
//     chunk's slice of the hit-flag buffer; bipsProc's branchless
//     compaction then builds A_{t+1} and the usual member-wise cleanup
//     runs.
//   - Pull (dense A_t): the protocol as the paper states it. The grid
//     is the vertex ranges [c·kernelChunk, (c+1)·kernelChunk). Every
//     vertex u but the source scans its own row once — an infected
//     neighbour makes u a candidate, and on the fast path the row sum is
//     d_A(u) — then samples from that same, cache-resident row. The chunk
//     writes its range of the next-round membership bits and its
//     ascending hit list; the caller concatenates the lists in chunk
//     order behind the source. Dense rounds therefore stream the
//     neighbour array front to back, with no sequential collection and
//     no random row gathers.
//
// A_t's membership is a bitset, not bipsProc's byte map: pull scans
// probe it up to once per arc, and at one bit per vertex it stays in L2
// (256 KiB at n = 2^21) where the byte map would spill to the LLC.
//
// Either way, one Uint64 from the trial stream is the round seed and
// chunk c draws from NewStream(roundSeed, c); the sampling paths (pow2
// bulk draws, non-pow2, offsets, Rho, FastSampling) are shared. The
// direction rule depends only on |A_t| and the graph, and the chunk
// grid only on the data, so results are byte-identical for every worker
// count (difftest.LockstepWorkers). Like cobra-par, the engine is not
// stream-compatible with the sequential reference.
//
// Buffers are sized at construction and reused; steady-state Steps
// perform zero allocations.
type bipsParProc struct {
	// g pins the source graph: see cobraProc — the CSR slices alias it,
	// and mmap-backed graphs unmap when the graph becomes unreachable.
	g         *graph.Graph
	offsets   []int64
	neighbors []int32
	n         int
	reg       int32       // common degree when the graph is regular, else 0
	samp      rng.Bounded // sampler over [0, reg) when regular

	k    int
	rho  float64
	fast bool
	obs  RoundObserver

	pool *kernelPool

	// pullFrom is the smallest |A_t| that takes a pull round: the first
	// size at which A_t's arcs, at the average degree, reach n/pullShare.
	pullFrom int

	source   int32
	inf      bitset  // A_t's membership
	nextInf  bitset  // pull rounds write A_{t+1}'s membership here, then swap
	candB    []uint8 // candB[v] == 1 iff v already discovered this round
	infCount []int32
	infBuf   []int32 // A_t, first infLen entries (+ sentinel slot)
	nextBuf  []int32 // A_{t+1} under construction
	candBuf  []int32 // push: Γ(A_t) minus the source; pull: chunk c's hits at [c·kernelChunk, …)
	hitBuf   []uint8 // per-candidate hit flags; chunk c owns [c·kernelChunk, …)
	infLen   int

	// Per-round kernel state: the direction, the candidate count, the
	// round seed (all frozen during the parallel phase), per-chunk
	// transmission and pull-hit counts, and one bulk-draw buffer per
	// worker for the pow2 fast loop.
	pull      bool
	nc        int
	roundSeed uint64
	sentC     []int64
	hitLen    []int32
	drawBufs  [][]uint64

	round int
	sent  int64

	pushes, pulls int // rounds of each form since Reset; see RoundModes
}

func newBipsParProc(g *graph.Graph, cfg Config) (Process, error) {
	if err := checkGraph(g); err != nil {
		return nil, err
	}
	br := cfg.branching()
	if err := br.Validate(); err != nil {
		return nil, err
	}
	offsets, neighbors := g.CSR()
	n := g.N()
	// pullShare·|A_t|·arcs/n ≥ n, solved for |A_t| once; on a regular
	// graph this is |A_t|·r·pullShare ≥ n. checkGraph guarantees arcs > 0.
	arcs := uint64(len(neighbors))
	share := uint64(pullShare) * arcs
	pullFrom := int((uint64(n)*uint64(n) + share - 1) / share)
	p := &bipsParProc{
		g:         g,
		offsets:   offsets,
		neighbors: neighbors,
		n:         n,
		k:         br.K,
		rho:       br.Rho,
		fast:      cfg.FastSampling,
		obs:       cfg.Observer,
		pool:      newKernelPool(cfg.kernelWorkers()),
		pullFrom:  pullFrom,
		inf:       newBitset(n),
		nextInf:   newBitset(n),
		candB:     make([]uint8, n),
		infBuf:    make([]int32, n+1),
		nextBuf:   make([]int32, n+1),
		candBuf:   make([]int32, n+1),
		hitBuf:    make([]uint8, n+1),
		sentC:     make([]int64, chunksFor(n)),
		hitLen:    make([]int32, chunksFor(n)),
	}
	if cfg.FastSampling {
		p.infCount = make([]int32, n)
	}
	if reg, err := g.Regularity(); err == nil {
		p.reg = int32(reg)
		p.samp = rng.NewBounded(uint64(reg))
		if _, pow2 := p.samp.Mask(); pow2 && !p.fast {
			// One L1-sized bulk-draw chunk per worker; at least K so a
			// block always holds one whole candidate.
			size := 2048
			if p.k > size {
				size = p.k
			}
			p.drawBufs = make([][]uint64, p.pool.workers())
			for i := range p.drawBufs {
				p.drawBufs[i] = make([]uint64, size)
			}
		}
	}
	if len(p.pool.start) > 0 {
		runtime.AddCleanup(p, func(kp *kernelPool) { kp.stop() }, p.pool)
	}
	return p, nil
}

// Reset prepares the run with source starts[0] and A_0 = set(starts).
func (p *bipsParProc) Reset(starts ...int32) error {
	if err := checkStartsN(p.n, starts); err != nil {
		return err
	}
	p.inf.zero()
	p.source = starts[0]
	p.infLen = 0
	p.round = 0
	p.sent = 0
	p.pushes, p.pulls = 0, 0
	for _, s := range starts {
		if p.inf.testAndSet(s) {
			p.infBuf[p.infLen] = s
			p.infLen++
		}
	}
	return nil
}

// runChunk runs chunk `chunk` of the round's grid: a candidate range
// on push rounds, a vertex range on pull rounds. Shared state (inf,
// the CSR arrays, the candidate list on push rounds) is read-only
// during the parallel phase; every write lands in a chunk-owned range.
func (p *bipsParProc) runChunk(worker, chunk int) {
	r := p.pool.rands[worker]
	r.ReseedStream(p.roundSeed, uint64(chunk))
	lo := chunk * kernelChunk
	if !p.pull {
		hi := min(lo+kernelChunk, p.nc)
		p.sentC[chunk] = p.evaluate(r, worker, p.candBuf[lo:hi], p.hitBuf[lo:hi])
		return
	}

	// Pull: every vertex u of [lo, hi) but the source scans its own row.
	// A row holding an infected vertex makes u a candidate — the exact
	// paths stop at the first one, the fast path sums the whole row into
	// d_A(u). Candidates are gathered in ascending order into
	// candBuf[lo:], which the chunk owns because it holds at most hi-lo
	// of them, and sampled while their rows are still in cache.
	hi := min(lo+kernelChunk, p.n)
	nb := p.neighbors
	offsets := p.offsets
	inf := p.inf
	src := int(p.source)
	cands := p.candBuf[lo:hi]
	m := 0
	if p.fast {
		infCount := p.infCount
		for u := lo; u < hi; u++ {
			if u == src {
				continue
			}
			var d int32
			for _, w := range nb[offsets[u]:offsets[u+1]] {
				d += int32(inf.bit(w))
			}
			infCount[u] = d
			cands[m] = int32(u)
			m += int(min(d, 1))
		}
	} else {
		for u := lo; u < hi; u++ {
			if u == src {
				continue
			}
			for _, w := range nb[offsets[u]:offsets[u+1]] {
				if inf.bit(w) != 0 {
					cands[m] = int32(u)
					m++
					break
				}
			}
		}
	}
	hit := p.hitBuf[lo : lo+m]
	p.sentC[chunk] = p.evaluate(r, worker, cands[:m], hit)

	// Compact the hits in place, still ascending, and write the range's
	// next-round membership; the caller concatenates the hit lists in
	// chunk order and marks the source.
	j := 0
	for i, u := range cands[:m] {
		cands[j] = u
		j += int(hit[i])
	}
	next := p.nextInf
	clear(next[lo>>6 : (hi+63)>>6])
	for _, u := range cands[:j] {
		next.set(u)
	}
	p.hitLen[chunk] = int32(j)
}

// evaluate draws every candidate's samples from r and sets hit[i] to 1
// iff one of cands[i]'s samples lies in A_t; it returns the chunk's
// transmission count. The sampling paths are bipsProc's, minus its
// compaction pass (which runs after the join).
func (p *bipsParProc) evaluate(r *rng.Rand, worker int, cands []int32, hit []uint8) int64 {
	nb := p.neighbors
	offsets := p.offsets
	k := p.k
	rho := p.rho
	var sent int64
	switch {
	case p.fast:
		infCount := p.infCount
		for i, u := range cands {
			deg := offsets[u+1] - offsets[u]
			pp := float64(infCount[u]) / float64(deg)
			prob := 1 - missProb(pp, k)*(1-rho*pp)
			sent += int64(k) // expected-equivalent accounting
			if rho > 0 && r.Bernoulli(rho) {
				sent++
			}
			var h uint8
			if r.Bernoulli(prob) {
				h = 1
			}
			hit[i] = h
		}
	case p.reg > 0 && rho == 0:
		// Regular graph, integral branching: bipsProc's tight two-pass
		// loop, pass one only. Bulk draws come from the worker's private
		// buffer; the chunked FillUint64 stream is fixed by the chunk's
		// candidate count, so it is identical however chunks are
		// scheduled.
		reg := int64(p.reg)
		samp := p.samp
		mask, pow2 := p.samp.Mask()
		inf := p.inf
		if pow2 {
			draws := p.drawBufs[worker]
			blockCands := len(draws) / k
			for blo := 0; blo < len(cands); blo += blockCands {
				bhi := min(blo+blockCands, len(cands))
				block := cands[blo:bhi]
				r.FillUint64(draws[:len(block)*k])
				pos := 0
				if k == 2 {
					for bi, u := range block {
						base := int64(u) * reg
						w0 := nb[base+int64(draws[pos]&mask)]
						w1 := nb[base+int64(draws[pos+1]&mask)]
						pos += 2
						hit[blo+bi] = uint8(inf.bit(w0) | inf.bit(w1))
					}
				} else {
					for bi, u := range block {
						base := int64(u) * reg
						var hits uint64
						for s := 0; s < k; s++ {
							w := nb[base+int64(draws[pos]&mask)]
							pos++
							hits |= inf.bit(w)
						}
						hit[blo+bi] = uint8(hits)
					}
				}
			}
		} else {
			for i, u := range cands {
				base := int64(u) * reg
				var hits uint64
				for s := 0; s < k; s++ {
					w := nb[base+int64(samp.Next(r))]
					hits |= inf.bit(w)
				}
				hit[i] = uint8(hits)
			}
		}
		sent = int64(k) * int64(len(cands))
	default:
		inf := p.inf
		for i, u := range cands {
			olo, ohi := offsets[u], offsets[u+1]
			deg := uint64(ohi - olo)
			samples := k
			if rho > 0 && r.Bernoulli(rho) {
				samples++
			}
			var hits uint64
			for s := 0; s < samples; s++ {
				sent++
				w := nb[olo+int64(r.Uint64n(deg))]
				hits |= inf.bit(w)
			}
			hit[i] = uint8(hits)
		}
	}
	return sent
}

func (p *bipsParProc) Step(r *rng.Rand) {
	p.roundSeed = r.Uint64()
	p.pull = p.infLen >= p.pullFrom
	var sent int64
	var numChunks int
	if p.pull {
		numChunks = p.pullRound()
	} else {
		numChunks = p.pushRound()
	}
	for _, s := range p.sentC[:numChunks] {
		sent += s
	}
	p.round++
	p.sent += sent
	if p.obs != nil {
		p.obs(RoundStat{Round: p.round, Active: p.infLen, Reached: p.infLen,
			Transmissions: sent})
	}
}

// pullRound runs a round over the vertex-range grid, builds A_{t+1}
// (the source, then each chunk's ascending hits in chunk order) and
// swaps in the membership bits the chunks wrote. It returns the chunk
// count.
func (p *bipsParProc) pullRound() int {
	numChunks := chunksFor(p.n)
	p.pool.dispatch(p, numChunks)
	next := p.nextBuf
	next[0] = p.source // the source is always infected
	j := 1
	for c, h := range p.hitLen[:numChunks] {
		lo := c * kernelChunk
		j += copy(next[j:], p.candBuf[lo:lo+int(h)])
	}
	p.nextInf.set(p.source)
	p.inf, p.nextInf = p.nextInf, p.inf
	p.infBuf, p.nextBuf = next, p.infBuf
	p.infLen = j
	p.pulls++
	return numChunks
}

// pushRound collects the candidates from A_t's rows, evaluates them
// over the candidate grid and compacts the hits. It returns the chunk
// count.
func (p *bipsParProc) pushRound() int {
	// Collect candidates exactly as bipsProc: inclusive neighbourhood
	// Γ(A_t) in infected-list discovery order, source pre-marked so it
	// never enters the list. No randomness is consumed, so collection
	// order — and therefore the chunk grid — is worker-count-free.
	cands := p.candBuf
	candB := p.candB
	nb := p.neighbors
	offsets := p.offsets
	infected := p.infBuf[:p.infLen]
	nc := 0
	candB[p.source] = 1
	if p.fast {
		infCount := p.infCount
		for _, v := range infected {
			for _, u := range nb[offsets[v]:offsets[v+1]] {
				if candB[u] == 0 {
					candB[u] = 1
					cands[nc] = u
					nc++
					infCount[u] = 0
				}
				infCount[u]++
			}
		}
	} else if p.reg > 0 {
		// See bipsProc for the unroll/prefetch/full-break rationale.
		reg := int64(p.reg)
		full := p.n - 1
		pf := p.hitBuf
		last := len(infected) - 1
		for i, v := range infected {
			if nc == full {
				break
			}
			pf[p.n] = uint8(nb[int64(infected[min(i+8, last)])*reg])
			a := int64(v) * reg
			end := a + reg
			for ; a+1 < end; a += 2 {
				u0, u1 := nb[a], nb[a+1]
				old0 := candB[u0]
				candB[u0] = 1
				cands[nc] = u0
				nc += int(old0) ^ 1
				old1 := candB[u1]
				candB[u1] = 1
				cands[nc] = u1
				nc += int(old1) ^ 1
			}
			if a < end {
				u := nb[a]
				old := candB[u]
				candB[u] = 1
				cands[nc] = u
				nc += int(old) ^ 1
			}
		}
	} else {
		for _, v := range infected {
			for _, u := range nb[offsets[v]:offsets[v+1]] {
				old := candB[u]
				candB[u] = 1
				cands[nc] = u
				nc += int(old) ^ 1
			}
		}
	}
	cands = cands[:nc]
	p.nc = nc

	// Evaluate in parallel, then compact sequentially.
	numChunks := chunksFor(nc)
	p.pool.dispatch(p, numChunks)

	next := p.nextBuf
	next[0] = p.source // the source is always infected
	j := 1
	hit := p.hitBuf
	for i, u := range cands {
		next[j] = u
		j += int(hit[i])
	}

	// Swap infected sets: clear the per-round candidate marks (including
	// the source pre-mark) and the old membership marks, then stamp the
	// new set.
	clearByteMembers(candB, cands)
	candB[p.source] = 0
	inf := p.inf
	inf.clearMembers(infected)
	for _, u := range next[:j] {
		inf.set(u)
	}
	p.infBuf, p.nextBuf = next, p.infBuf
	p.infLen = j
	p.pushes++
	return numChunks
}

func (p *bipsParProc) Done() bool           { return p.infLen == p.n }
func (p *bipsParProc) Round() int           { return p.round }
func (p *bipsParProc) ReachedCount() int    { return p.infLen }
func (p *bipsParProc) Transmissions() int64 { return p.sent }

// RoundModes reports how many rounds since Reset ran in push form
// (sparse A_t) and in pull form (dense A_t). Tests use it to prove a
// run crossed both paths.
func (p *bipsParProc) RoundModes() (push, pull int) { return p.pushes, p.pulls }

// AppendReached appends A_t in ascending vertex order.
func (p *bipsParProc) AppendReached(dst []int32) []int32 {
	return appendBits(dst, p.inf, p.n)
}
