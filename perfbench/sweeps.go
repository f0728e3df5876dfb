package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/graphstore"
	"cobrawalk/internal/sweep"
)

// sweepRun is one sweep.Run pass as users run cmd/sweep -out: artifacts
// are persisted to a fresh directory and results.ndjson is returned.
// With a tracer, the PointStart/PointDone hooks record each point's
// span (the hooks cannot affect results).
type sweepRun struct {
	spec  sweep.Spec
	opts  sweep.Options
	dir   string
	tr    *tracer
	point map[string][]time.Duration // point ID → hook-measured durations
}

func (s *sweepRun) pass(ctx context.Context, i int) (time.Duration, []byte, error) {
	dir := filepath.Join(s.dir, "pass-"+strconv.Itoa(i))
	opts := s.opts
	opts.Dir = dir
	var root int
	starts := map[string]time.Time{}
	if s.tr != nil {
		opts.PointStart = func(pt sweep.Point) { starts[pt.ID] = time.Now() }
		opts.PointDone = func(res sweep.Result, _ bool) {
			now := time.Now()
			s.tr.add("sweep.run.point", root, starts[res.ID], now)
			s.point[res.ID] = append(s.point[res.ID], now.Sub(starts[res.ID]))
		}
	}
	root = s.tr.begin("sweep.run", 0)
	t := time.Now()
	_, err := sweep.Run(ctx, s.spec, opts)
	d := time.Since(t)
	s.tr.end(root)
	if err != nil {
		return 0, nil, err
	}
	blob, err := os.ReadFile(filepath.Join(dir, "results.ndjson"))
	if err != nil {
		return 0, nil, err
	}
	return d, blob, nil
}

// sweepWorkload is what the two sweep workloads share: set-up repetitions,
// untraced passes, in traced runs one replica pass, and the checks.
type sweepWorkload struct {
	e       *env
	spec    sweep.Spec
	opts    sweep.Options
	workers replicaWorkers
	cache   func() (*graphcache.Cache, error) // the cache a pass (and the replica) uses
	setup   func(i int) error
	reps    int // set-up repetitions
	minPass int
}

func (w *sweepWorkload) run(o *outcome) (want []byte, err error) {
	ctx := context.Background()
	e := w.e
	pts, err := w.spec.Points()
	if err != nil {
		return nil, err
	}
	o.jobsPer = 1
	o.trialsPer = len(pts) * w.spec.Trials

	o.setups, err = repeat(w.reps, w.setup)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()

	sr := &sweepRun{spec: w.spec, opts: w.opts, dir: filepath.Join(e.workDir, "sweep"), tr: e.tr, point: map[string][]time.Duration{}}
	budget := e.budget
	if e.traced {
		budget /= 2 // the other half goes to the traced pass
	}
	o.walls, err = measure(budget, w.minPass, func(i int) (time.Duration, error) {
		cache, err := w.cache()
		if err != nil {
			return 0, err
		}
		sr.opts.GraphCache = cache
		d, blob, err := sr.pass(ctx, i)
		if err != nil {
			return 0, err
		}
		o.attempted += len(pts)
		if want == nil {
			want = blob
		}
		o.check(bytes.Equal(blob, want), "pass %d results.ndjson differs from pass 0", i)
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	o.jobs = o.walls

	if e.traced {
		st := newReplicaStats()
		cache, err := w.cache()
		if err != nil {
			return nil, err
		}
		before := cache.Stats()
		root := e.tr.begin("replica.run", 0)
		t := time.Now()
		results, err := replicaRun(ctx, e.tr, root, w.spec, cache, w.workers, st)
		o.traced = append(o.traced, time.Since(t))
		e.tr.end(root)
		if err != nil {
			return nil, err
		}
		o.attempted += len(results)
		got, err := encodeRecords(results)
		if err != nil {
			return nil, err
		}
		o.check(bytes.Equal(got, want), "traced replica records differ from sweep.Run's")
		o.layers = replicaLayers(e.tr, st)
		after := cache.Stats()
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		o.layers["graphcache.hits"] = int64(hits)
		o.layers["graphcache.misses"] = int64(misses)
		o.layers["graphcache.disk_hits"] = int64(after.DiskHits - before.DiskHits)
		o.layers["graphcache.hit_ratio"] = float64(hits) / float64(hits+misses)
		var points []time.Duration
		var other time.Duration
		for _, pt := range pts {
			d := median(sr.point[pt.ID])
			points = append(points, sr.point[pt.ID]...)
			other += d - st.children[pointKey(pt)]
		}
		o.layers["sweep.point_p50_s"] = median(points).Seconds()
		o.layers["sweep.other_s"] = other.Seconds()
	}
	return want, nil
}

// buildTopology builds a sweep point's graph through the cache, as
// sweep.Run does, with a graph.build span around the generator.
func buildTopology(tr *tracer, parent int, cache *graphcache.Cache, sweepSeed uint64, pt sweep.Point) (*graph.Graph, error) {
	key := graphcache.Key{Family: pt.Family, Size: pt.Size, Degree: pt.Degree, Seed: pt.GraphSeed}
	return cache.GetOrBuild(key, func() (*graph.Graph, error) {
		s := tr.begin("graph.build", parent)
		defer tr.end(s)
		g, built, err := sweep.BuildTopology(pt.Family, pt.Size, pt.Degree, sweepSeed)
		if err == nil && built != key {
			err = fmt.Errorf("topology key %v, point wants %v", built, key)
		}
		return g, err
	})
}

// csrBytes is the size of a graph's CSR arrays, int64 offsets and int32
// neighbours, for a sweep family at the given size and degree.
func csrBytes(family string, n, degree int) int64 {
	switch family {
	case "complete":
		degree = n - 1
	case "torus-2d":
		degree = 4
	}
	return 8*int64(n+1) + 4*int64(n)*int64(degree)
}

// runEnsemble is ensemble-expander: sweep.Run of Theorems 1–2 on 2^14
// vertices with an in-memory graph cache filled in set-up.
func runEnsemble(e *env) (*outcome, error) {
	spec := ensembleSpec(e.seed)
	pts, err := spec.Points()
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	var cache *graphcache.Cache
	w := &sweepWorkload{
		e:       e,
		spec:    spec,
		opts:    sweep.Options{TrialWorkers: e.nproc, MaxProcs: e.nproc},
		workers: replicaWorkers{trial: e.nproc, kernel: 1},
		cache:   func() (*graphcache.Cache, error) { return cache, nil },
		reps:    5,
		minPass: 3,
		setup: func(int) error {
			cache = graphcache.New(0)
			root := e.tr.begin("setup", 0)
			defer e.tr.end(root)
			for _, pt := range pts {
				if _, err := buildTopology(e.tr, root, cache, spec.Seed, pt); err != nil {
					return err
				}
			}
			return nil
		},
	}
	for _, d := range spec.Degrees {
		o.workingSet += csrBytes("rand-reg", ensembleSize, d)
	}
	if _, err := w.run(o); err != nil {
		return nil, err
	}
	if e.traced {
		builds := e.tr.durations("graph.build")
		o.layers["graph.builds"] = int64(len(builds))
		o.layers["graph.build_s"] = (e.tr.total("graph.build") / time.Duration(w.reps)).Seconds()
	}
	return o, nil
}

// runLargeGraph is large-graph: one trial of each engine on a 2^21-vertex
// store built in set-up and mmapped through the graph cache's disk tier
// on every pass.
func runLargeGraph(e *env) (*outcome, error) {
	spec := largeSpec(e.seed)
	pts, err := spec.Points()
	if err != nil {
		return nil, err
	}
	pt := pts[0]
	storeDir := filepath.Join(e.workDir, "store")
	key := graphcache.Key{Family: pt.Family, Size: pt.Size, Degree: pt.Degree, Seed: pt.GraphSeed}
	storePath := filepath.Join(storeDir, graphcache.StoreFileName(key))
	newCache := func() (*graphcache.Cache, error) {
		return graphcache.NewWithOptions(graphcache.Options{StoreDir: storeDir})
	}
	o := &outcome{workingSet: csrBytes("rand-reg", largeSize, largeDegree)}
	w := &sweepWorkload{
		e:       e,
		spec:    spec,
		opts:    sweep.Options{TrialWorkers: 1, KernelWorkers: e.nproc, MaxProcs: e.nproc},
		workers: replicaWorkers{trial: 1, kernel: e.nproc},
		cache:   newCache,
		reps:    3,
		minPass: 1,
		setup: func(int) error {
			// What cmd/graphbuild does: generate, then write the store.
			root := e.tr.begin("setup", 0)
			defer e.tr.end(root)
			s := e.tr.begin("graph.build", root)
			g, built, err := sweep.BuildTopology(pt.Family, pt.Size, pt.Degree, spec.Seed)
			e.tr.end(s)
			if err != nil {
				return err
			}
			if built != key {
				return fmt.Errorf("topology key %v, point wants %v", built, key)
			}
			if err := os.MkdirAll(storeDir, 0o755); err != nil {
				return err
			}
			return graphstore.Write(storePath, g)
		},
	}
	want, err := w.run(o)
	if err != nil {
		return nil, err
	}
	// cobra-par and bips-par must give identical results at one kernel
	// worker and at nproc, checked outside the timed region.
	kspec := spec
	kspec.Processes = []string{sweep.ProcCobraPar, sweep.ProcBIPSPar}
	cache, err := newCache()
	if err != nil {
		return nil, err
	}
	one := &sweepRun{spec: kspec, opts: sweep.Options{TrialWorkers: 1, KernelWorkers: 1, MaxProcs: e.nproc, GraphCache: cache}, dir: filepath.Join(e.workDir, "kernel1")}
	_, blob, err := one.pass(context.Background(), 0)
	if err != nil {
		return nil, err
	}
	o.attempted += len(kspec.Processes)
	// Point.Index is the position in expansion order, which differs
	// between the two specs; everything else must match.
	byID := func(ndjson []byte) (map[string][]byte, error) {
		out := map[string][]byte{}
		for _, line := range bytes.Split(bytes.TrimSpace(ndjson), []byte("\n")) {
			var r sweep.Result
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, err
			}
			r.Index = 0
			blob, err := json.Marshal(r)
			if err != nil {
				return nil, err
			}
			out[r.ID] = blob
		}
		return out, nil
	}
	wantPar, err := byID(want)
	if err != nil {
		return nil, err
	}
	gotPar, err := byID(blob)
	if err != nil {
		return nil, err
	}
	for id, got := range gotPar {
		o.check(bytes.Equal(got, wantPar[id]), "%s differs between kernel workers 1 and %d", id, e.nproc)
	}

	if e.traced {
		o.layers["graphstore.load_s"] = e.tr.total("graphcache.get").Seconds() // one disk-tier mmap, then memory hits
		if fi, err := os.Stat(storePath); err == nil {
			o.layers["graphstore.bytes_mapped"] = fi.Size()
		}
		o.layers["graph.builds"] = int64(len(e.tr.durations("graph.build")))
		o.layers["graph.build_s"] = median(e.tr.durations("graph.build")).Seconds()
		for _, pair := range [][2]string{{sweep.ProcCobra, sweep.ProcCobraPar}, {sweep.ProcBIPS, sweep.ProcBIPSPar}} {
			base := median(e.tr.durations("process.trial." + pair[0]))
			par := median(e.tr.durations("process.trial." + pair[1]))
			if par > 0 {
				o.layers["kernel.speedup."+pair[0]] = float64(base) / float64(par)
			}
		}
	}
	return o, nil
}
