package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/sim"
	"cobrawalk/internal/spectral"
	"cobrawalk/internal/stats"
	"cobrawalk/internal/sweep"
)

// The traced replica recomputes sweep points through the public API of
// each layer that sweep.Run reaches internally — graphcache.GetOrBuild
// over sweep.BuildTopology, spectral.LambdaMax, process.New and
// process.RunCollect inside sim.ReduceWithState folding into stats
// digests — with a span around every call. Its records must equal
// sweep.Run's for the same spec, byte for byte.

// engineAcc counts one engine's work over the traced trials.
type engineAcc struct {
	trials        int
	rounds        int64
	transmissions int64
	allocs        uint64
}

// replicaStats accumulates the layer counts the spans do not carry.
type replicaStats struct {
	mu       sync.Mutex
	engines  map[string]*engineAcc
	busy     time.Duration // Σ trial time
	capacity time.Duration // Σ reduce wall × trial workers
	children map[string]time.Duration
}

func newReplicaStats() *replicaStats {
	return &replicaStats{engines: map[string]*engineAcc{}, children: map[string]time.Duration{}}
}

// replicaWorkers is the worker split the replica runs a point with. Like
// sweep.Options it cannot change results, only timings.
type replicaWorkers struct {
	trial, kernel int
}

// trialOut mirrors the sweep layer's per-trial material.
type trialOut struct {
	res process.Result
	col *process.Collector
}

type pointAcc struct {
	scalars []*stats.Digest
	trajs   []*stats.TrajectoryDigest
}

type trialState struct {
	p   process.Process
	col *process.Collector
}

// scalarOf and seriesOf map the sweep metric registry's names onto the
// values a driven trial exposes.
func scalarOf(name string, res process.Result, c *process.Collector) float64 {
	switch name {
	case sweep.MetricRounds:
		return float64(res.Rounds)
	case sweep.MetricTransmissions:
		return float64(res.Transmissions)
	case sweep.MetricPeakActive:
		return float64(c.PeakActive())
	case sweep.MetricHalfCoverage:
		return float64(c.HalfCoverageRound())
	}
	panic("perfbench: scalar metric without a replica: " + name)
}

func seriesOf(name string, c *process.Collector) []int {
	switch name {
	case sweep.MetricCoverage:
		return c.Reached()
	case sweep.MetricFrontier:
		return c.Active()
	}
	panic("perfbench: trajectory metric without a replica: " + name)
}

// replicaRun recomputes every point of spec under span parent.
func replicaRun(ctx context.Context, tr *tracer, parent int, spec sweep.Spec, cache *graphcache.Cache, w replicaWorkers, st *replicaStats) ([]sweep.Result, error) {
	pts, err := spec.Points()
	if err != nil {
		return nil, err
	}
	out := make([]sweep.Result, 0, len(pts))
	for _, pt := range pts {
		res, err := replicaPoint(ctx, tr, parent, spec.Seed, pt, cache, w, st)
		if err != nil {
			return nil, fmt.Errorf("replica point %s: %w", pt.ID, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func replicaPoint(ctx context.Context, tr *tracer, parent int, sweepSeed uint64, pt sweep.Point, cache *graphcache.Cache, w replicaWorkers, st *replicaStats) (sweep.Result, error) {
	ps := tr.begin("sweep.point", parent)
	defer tr.end(ps)
	var layers time.Duration

	gs := tr.begin("graphcache.get", ps)
	g, err := buildTopology(tr, gs, cache, sweepSeed, pt)
	layers += tr.end(gs)
	if err != nil {
		return sweep.Result{}, fmt.Errorf("building graph: %w", err)
	}
	res := sweep.Result{Point: pt, GraphN: g.N()}
	if deg, err := g.Regularity(); err == nil {
		res.GraphDegree = deg
	}
	if pt.MeasureLambda {
		ls := tr.begin("spectral.lambda", ps)
		res.Lambda, err = spectral.LambdaMax(g, spectral.Options{Tol: 1e-9, MaxIter: 20000})
		layers += tr.end(ls)
		if err != nil {
			return sweep.Result{}, fmt.Errorf("measuring lambda: %w", err)
		}
	}

	var scalars, trajs []string
	collects := false
	for _, name := range pt.Metrics {
		m, err := sweep.LookupMetric(name)
		if err != nil {
			return sweep.Result{}, err
		}
		collects = collects || m.Collects
		if m.Trajectory {
			trajs = append(trajs, name)
		} else {
			scalars = append(scalars, name)
		}
	}
	info, err := process.Lookup(pt.Process)
	if err != nil {
		return sweep.Result{}, err
	}
	kernelWorkers := 1
	if info.Kernel {
		kernelWorkers = w.kernel
	}
	trialWorkers := max(1, min(w.trial, pt.Trials))

	red := sim.Reducer[trialOut, pointAcc]{
		New: func() pointAcc {
			acc := pointAcc{scalars: make([]*stats.Digest, len(scalars)), trajs: make([]*stats.TrajectoryDigest, len(trajs))}
			for i := range acc.scalars {
				acc.scalars[i] = stats.NewDigest()
			}
			for i := range acc.trajs {
				acc.trajs[i] = stats.NewTrajectoryDigest()
			}
			return acc
		},
		Merge: func(into, from pointAcc) (pointAcc, error) {
			for i := range into.scalars {
				if err := into.scalars[i].Merge(from.scalars[i]); err != nil {
					return pointAcc{}, err
				}
			}
			for i := range into.trajs {
				if err := into.trajs[i].Merge(from.trajs[i]); err != nil {
					return pointAcc{}, err
				}
			}
			return into, nil
		},
	}
	var (
		mu       sync.Mutex
		eng      engineAcc
		trialDur time.Duration
	)
	rs := tr.begin("sim.reduce", ps)
	red.Fold = func(acc pointAcc, _ int, v trialOut) pointAcc {
		fs := tr.begin("stats.fold", rs)
		for i, name := range scalars {
			acc.scalars[i].Add(scalarOf(name, v.res, v.col))
		}
		for i, name := range trajs {
			acc.trajs[i].AddTrial(seriesOf(name, v.col))
		}
		tr.end(fs)
		return acc
	}
	trialSpan := "process.trial." + pt.Process
	start := []int32{0}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reduceStart := time.Now()
	acc, err := sim.ReduceWithState(ctx, sim.Spec{Trials: pt.Trials, Seed: pt.Seed, Workers: trialWorkers}, red,
		func() trialState {
			cfg := process.Config{Branching: pt.Branching, KernelWorkers: kernelWorkers}
			var col *process.Collector
			if collects {
				col = process.NewCollector(g.N())
				cfg.Observer = col.Observe
			}
			p, err := process.New(pt.Process, g, cfg)
			if err != nil {
				panic(err) // the registry accepted this process for the point's spec
			}
			return trialState{p: p, col: col}
		},
		func(s trialState, _ int, r *rng.Rand) (trialOut, error) {
			ts := tr.begin(trialSpan, rs)
			var out process.Result
			var err error
			if s.col != nil {
				out, err = process.RunCollect(ctx, s.p, s.col, r, pt.MaxRounds, start...)
			} else {
				out, err = process.RunContext(ctx, s.p, r, pt.MaxRounds, start...)
			}
			d := tr.end(ts)
			if err != nil {
				return trialOut{}, err
			}
			if !out.Done {
				return trialOut{}, fmt.Errorf("%s run hit round cap %d", pt.Process, pt.MaxRounds)
			}
			mu.Lock()
			eng.trials++
			eng.rounds += int64(out.Rounds)
			eng.transmissions += out.Transmissions
			trialDur += d
			mu.Unlock()
			return trialOut{res: out, col: s.col}, nil
		})
	reduceWall := time.Since(reduceStart)
	runtime.ReadMemStats(&after)
	layers += tr.end(rs)
	if err != nil {
		return sweep.Result{}, err
	}

	ss := tr.begin("stats.summary", ps)
	res.Metrics = make(map[string]stats.DigestSummary, len(scalars))
	for i, name := range scalars {
		if res.Metrics[name], err = acc.scalars[i].Summary(); err != nil {
			return sweep.Result{}, fmt.Errorf("summarising %s: %w", name, err)
		}
	}
	if len(trajs) > 0 {
		res.Trajectories = make(map[string]stats.TrajectorySummary, len(trajs))
		for i, name := range trajs {
			if res.Trajectories[name], err = acc.trajs[i].Summary(); err != nil {
				return sweep.Result{}, fmt.Errorf("summarising %s: %w", name, err)
			}
		}
	}
	layers += tr.end(ss)

	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.engines[pt.Process]
	if e == nil {
		e = &engineAcc{}
		st.engines[pt.Process] = e
	}
	e.trials += eng.trials
	e.rounds += eng.rounds
	e.transmissions += eng.transmissions
	e.allocs += after.Mallocs - before.Mallocs
	st.busy += trialDur
	st.capacity += reduceWall * time.Duration(trialWorkers)
	st.children[pointKey(pt)] += layers
	return res, nil
}

// pointKey identifies a point across specs: IDs repeat between specs
// that differ only in their seed.
func pointKey(pt sweep.Point) string { return fmt.Sprintf("%s@%d", pt.ID, pt.Seed) }

// encodeRecords renders results the way the sweep layer persists them:
// one JSON record per line, in expansion order.
func encodeRecords(results []sweep.Result) ([]byte, error) {
	var out []byte
	for _, r := range results {
		blob, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out = append(append(out, blob...), '\n')
	}
	return out, nil
}

// bytesPerTransmission is the neighbour-array traffic a transmission
// implies at the workloads' branching k = 2: one int32 neighbour id, plus
// the sender's offsets pair (two int64) shared by its k sends.
const bytesPerTransmission = 4 + 16/2

// engineNames are the engines the process-layer metrics are reported for.
var engineNames = []string{sweep.ProcCobra, sweep.ProcBIPS, sweep.ProcCobraPar, sweep.ProcBIPSPar}

// replicaLayers turns a traced replica pass into the process, sim and
// stats layer metrics.
func replicaLayers(tr *tracer, st *replicaStats) map[string]any {
	m := map[string]any{}
	for _, e := range engineNames {
		acc := st.engines[e]
		if acc == nil || acc.trials == 0 {
			continue
		}
		span := "process.trial." + e
		p := "process." + e + "."
		m[p+"trial_p50_ms"] = ms(median(tr.durations(span)))
		m[p+"rounds"] = acc.rounds
		m[p+"transmissions"] = acc.transmissions
		m[p+"ns_per_transmission"] = float64(tr.total(span).Nanoseconds()) / float64(acc.transmissions)
		m[p+"allocs_per_trial"] = float64(acc.allocs) / float64(acc.trials)
		m[p+"bytes_per_trial_computed"] = bytesPerTransmission * float64(acc.transmissions) / float64(acc.trials)
	}
	m["sim.reduce_s"] = tr.total("sim.reduce").Seconds()
	if st.capacity > 0 {
		m["sim.busy_share"] = float64(st.busy) / float64(st.capacity)
	}
	m["stats.fold_s"] = tr.total("stats.fold").Seconds()
	m["stats.summary_s"] = tr.total("stats.summary").Seconds()
	if n := len(tr.durations("spectral.lambda")); n > 0 {
		m["spectral.lambda_s"] = tr.total("spectral.lambda").Seconds()
		m["spectral.calls"] = int64(n)
	}
	return m
}
