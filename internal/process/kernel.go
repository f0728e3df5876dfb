package process

import (
	"sync"
	"sync/atomic"

	"cobrawalk/internal/rng"
)

// kernelChunk is the chunk grain of the parallel round kernels: the
// number of frontier entries (cobra-par), candidates (bips-par push
// rounds) or vertices (bips-par pull rounds) one work chunk covers. The
// grain is part of the determinism contract — chunk boundaries, and
// therefore the per-chunk RNG streams, depend only on the data, never
// on the worker count — so changing it changes results the same way
// changing a seed would.
//
// 2048 entries × K pushes ≈ 4k random CSR gathers per chunk: coarse
// enough that chunk-claim traffic (one atomic add) and the per-chunk
// reseed are noise, fine enough that a 10^5-vertex frontier splits into
// ~50 chunks for dynamic load balancing across 8 workers.
const kernelChunk = 2048

// pullShare fixes bips-par's direction rule: a round runs in pull form
// once A_t's arcs reach n/pullShare, i.e. |A_t|·d̄·pullShare ≥ n with d̄
// the average degree (|A_t|·r·pullShare ≥ n on an r-regular graph). A
// pull round streams all n rows once; a push round gathers A_t's rows
// and then its candidates' rows at random, so the push cost per arc is
// several times the pull cost per arc. Like kernelChunk the rule is part
// of the determinism contract — it reads only |A_t| and the graph — and
// changing it changes results the way changing a seed would. On a
// 2-vCPU runner at n = 2^21, r = 8, one worker, shares of 1, 2 and 4
// were within run-to-run noise of each other (0.7–1.0 s per bips-par
// trial) and 8 and 16 were slower.
const pullShare = 4

// chunksFor returns the number of kernelChunk-sized chunks covering
// items entries.
func chunksFor(items int) int {
	return (items + kernelChunk - 1) / kernelChunk
}

// chunkRunner is the per-round work a parallel engine hands the pool:
// execute chunk `chunk` using the pool's worker-private generator
// rands[worker]. Implementations must touch only chunk-owned staging
// regions (plus read-only shared state) — the pool provides the
// happens-before edges between dispatch, the chunk runs and the merge,
// but no mutual exclusion.
type chunkRunner interface {
	runChunk(worker, chunk int)
}

// kernelPool executes one round's chunk grid across a fixed set of
// workers. The calling goroutine is worker 0; workers 1..W-1 are
// persistent helper goroutines started at construction and parked on
// per-helper wake channels between rounds, so a dispatch costs channel
// sends and a WaitGroup join — no goroutine creation, no allocation.
//
// Chunks are claimed dynamically through one atomic counter: which
// worker runs which chunk is scheduling, not semantics, because every
// chunk derives its own RNG stream from (roundSeed, chunkIndex) and
// writes to its own staging region. Results are therefore byte-identical
// for every worker count, including 1 (pure inline execution).
//
// The pool never references its owning engine between rounds (runner is
// cleared after every dispatch), so an engine dropped by its caller
// becomes unreachable; a runtime.AddCleanup hook on the engine then
// closes quit and the helpers exit. Engines are not safe for concurrent
// use, so at most one dispatch runs at a time.
type kernelPool struct {
	// rands[w] is worker w's private generator, reseeded per chunk via
	// ReseedStream(roundSeed, chunk).
	rands []*rng.Rand

	runner    chunkRunner
	numChunks int
	next      atomic.Int64

	start []chan struct{} // start[i] wakes helper worker i+1
	wg    sync.WaitGroup
	quit  chan struct{}
}

// newKernelPool returns a pool with the given total worker count
// (including the calling goroutine); workers-1 helper goroutines are
// started immediately.
func newKernelPool(workers int) *kernelPool {
	if workers < 1 {
		workers = 1
	}
	kp := &kernelPool{
		rands: make([]*rng.Rand, workers),
		start: make([]chan struct{}, workers-1),
		quit:  make(chan struct{}),
	}
	for i := range kp.rands {
		kp.rands[i] = rng.New(0)
	}
	for i := range kp.start {
		kp.start[i] = make(chan struct{}, 1)
		go kp.serve(i + 1)
	}
	return kp
}

// workers returns the total worker count, calling goroutine included.
func (kp *kernelPool) workers() int { return len(kp.start) + 1 }

// stop terminates the helper goroutines. Idempotence is not required:
// it is called exactly once, by the owning engine's cleanup hook.
func (kp *kernelPool) stop() { close(kp.quit) }

// dispatch runs chunks 0..numChunks-1 of run and returns when all have
// completed. Only as many helpers as there are chunks beyond the
// caller's first claim are woken, so tiny rounds stay single-threaded
// with zero synchronisation beyond the (uncontended) atomic claims.
func (kp *kernelPool) dispatch(run chunkRunner, numChunks int) {
	if numChunks <= 0 {
		return
	}
	kp.runner = run
	kp.numChunks = numChunks
	kp.next.Store(0)
	helpers := len(kp.start)
	if helpers > numChunks-1 {
		helpers = numChunks - 1
	}
	kp.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		kp.start[i] <- struct{}{}
	}
	kp.drain(0)
	kp.wg.Wait()
	// Drop the engine reference so an idle pool keeps nothing alive and
	// the engine's cleanup hook can fire once its caller lets go of it.
	kp.runner = nil
}

// drain claims and runs chunks until the grid is exhausted.
func (kp *kernelPool) drain(worker int) {
	for {
		c := int(kp.next.Add(1)) - 1
		if c >= kp.numChunks {
			return
		}
		kp.runner.runChunk(worker, c)
	}
}

// serve is the helper-goroutine loop: park until woken (or the pool is
// stopped), drain the chunk grid, signal completion.
func (kp *kernelPool) serve(worker int) {
	for {
		select {
		case <-kp.quit:
			return
		case <-kp.start[worker-1]:
			kp.drain(worker)
			kp.wg.Done()
		}
	}
}
