package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"cobrawalk/internal/core"
	"cobrawalk/internal/sweep"
)

// The benchmark draws every input from the workload seed with its own
// generator (math/rand/v2 PCG), never with the program's rng package, so
// a change to the program cannot change what the benchmark feeds it.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

const (
	ensembleSize   = 1 << 14
	ensembleTrials = 150
	largeSize      = 1 << 21
	largeDegree    = 8
)

// trajectoryMetrics is the metric set of both sweep workloads: the two
// scalar summaries plus the coverage trajectory, which attaches a
// Collector to every trial.
var trajectoryMetrics = []string{sweep.MetricRounds, sweep.MetricTransmissions, sweep.MetricCoverage}

// ensembleSpec is Theorems 1–2 as users run them: cobra and bips at k=2 on
// random regular graphs of degree 3 and 8.
func ensembleSpec(seed uint64) sweep.Spec {
	return sweep.Spec{
		Name:       "ensemble-expander",
		Families:   []string{"rand-reg"},
		Sizes:      []int{ensembleSize},
		Degrees:    []int{3, 8},
		Processes:  []string{sweep.ProcCobra, sweep.ProcBIPS},
		Branchings: []core.Branching{{K: 2}},
		Metrics:    trajectoryMetrics,
		Trials:     ensembleTrials,
		Seed:       newRand(seed, 1).Uint64(),
	}
}

// largeSpec is one trial of each engine on the 2^21-vertex store: the
// parallel kernels and their single-threaded baselines.
func largeSpec(seed uint64) sweep.Spec {
	return sweep.Spec{
		Name:       "large-graph",
		Families:   []string{"rand-reg"},
		Sizes:      []int{largeSize},
		Degrees:    []int{largeDegree},
		Processes:  []string{sweep.ProcCobra, sweep.ProcBIPS, sweep.ProcCobraPar, sweep.ProcBIPSPar},
		Branchings: []core.Branching{{K: 2}},
		Metrics:    trajectoryMetrics,
		Trials:     1,
		Seed:       newRand(seed, 2).Uint64(),
	}
}

// suiteSeed is the master seed of the paper suite: one fixed seed, the
// experiments command's default, whatever the workload seed. The suite
// draws random graphs whose spectral cost varies with the draw (E7's
// power iterations), so a seed-dependent suite would time the draw, not
// the code.
const suiteSeed = 1

// topology is one entry of the daemon workload's fixed topology pool.
type topology struct {
	Family string
	Size   int
	Degree int
}

// daemonPool is the fixed topology pool of daemon-jobs. Each entry gets
// two distinct specs: one with one point and one with two, which between
// them run cobra, bips and push once each. Lambda marks the entries whose
// one-point spec measures λ. Only the deterministic topologies do: the
// power iteration's cost on a random regular graph varies tenfold with the
// draw, which would make the pass time a property of the seed.
var daemonPool = []struct {
	Family string
	Size   int
	Degree int
	Lambda bool
}{
	{"rand-reg", 1024, 3, false},
	{"rand-reg", 4096, 8, false},
	{"torus-2d", 1024, 0, true},
	{"torus-2d", 4096, 0, true},
	{"complete", 256, 0, true},
}

const (
	daemonTrials        = 24 // trials per point
	daemonRepeats       = 10 // jobs per distinct valid spec in one pass
	daemonMalformedJobs = 5  // malformed submissions in one pass
)

// daemonProcesses is the process mix of every pool entry.
var daemonProcesses = []string{sweep.ProcCobra, sweep.ProcBIPS, sweep.ProcPush}

// malformedBodies are rejected specs: each must get a 4xx. None of them
// is oversized; specs that crash the daemon are a tracked defect, not
// part of the load mix.
var malformedBodies = []string{
	`{"families":["no-such-family"],"sizes":[64],"trials":4,"seed":1}`,
	`{"families":["rand-reg"],"sizes":[64],"trials":4,"seed":1}`,
	`{"families":["torus-2d"],"sizes":[64],"trials":0,"seed":1}`,
	`{"families":["torus-2d"],"sizes":[64],"processes":["no-such-process"],"trials":4,"seed":1}`,
	`{"families":["torus-2d"],"sizes":[64],"trials":4,"seed":1,"unknown_field":true}`,
	`{"families":["torus-2d"],`,
}

// daemonMix is one pass of daemon-jobs: the distinct valid specs and the
// job sequence (index into Specs, or -1-k for malformed body k).
type daemonMix struct {
	Specs     []sweep.Spec `json:"specs"`
	Malformed []string     `json:"malformed"`
	Sequence  []int        `json:"sequence"`
}

// daemonInputs generates the job mix. Its shape — topologies, sizes,
// processes per spec, point counts, λ per topology, malformed share and
// sequence length — is fixed; the seed draws the sweep seed (so the
// random graphs and every trial), the malformed bodies and the job
// order.
func daemonInputs(seed uint64) daemonMix {
	r := newRand(seed, 4)
	sweepSeed := r.Uint64()
	mix := daemonMix{}
	for ti, t := range daemonPool {
		// The one-point spec rotates through the processes, so the mix —
		// and with it the heaviest jobs, which set the tail — is the same
		// for every seed.
		var procs []string
		for k := range daemonProcesses {
			procs = append(procs, daemonProcesses[(ti+k)%len(daemonProcesses)])
		}
		for i, ps := range [][]string{procs[:1], procs[1:]} {
			s := sweep.Spec{
				Families:      []string{t.Family},
				Sizes:         []int{t.Size},
				Processes:     ps,
				Metrics:       []string{sweep.MetricRounds, sweep.MetricTransmissions, sweep.MetricCoverage},
				Trials:        daemonTrials,
				Seed:          sweepSeed,
				MeasureLambda: t.Lambda && i == 0, // λ is measured per point
			}
			if t.Degree > 0 {
				s.Degrees = []int{t.Degree}
			}
			mix.Specs = append(mix.Specs, s)
		}
	}
	for _, k := range r.Perm(len(malformedBodies))[:daemonMalformedJobs] {
		mix.Malformed = append(mix.Malformed, malformedBodies[k])
	}
	for i := range mix.Specs {
		for k := 0; k < daemonRepeats; k++ {
			mix.Sequence = append(mix.Sequence, i)
		}
	}
	for k := range mix.Malformed {
		mix.Sequence = append(mix.Sequence, -1-k)
	}
	r.Shuffle(len(mix.Sequence), func(i, j int) { mix.Sequence[i], mix.Sequence[j] = mix.Sequence[j], mix.Sequence[i] })
	return mix
}

// allInputs encodes every workload's inputs for one seed.
func allInputs(seed uint64) ([]byte, error) {
	return json.Marshal(map[string]any{
		"ensemble-expander": ensembleSpec(seed),
		"large-graph":       largeSpec(seed),
		"paper-suite":       suiteSeed,
		"daemon-jobs":       daemonInputs(seed),
	})
}

// inputShape is everything about the inputs that must not depend on the
// seed: the sweep grids without their seeds, and the daemon mix's
// topology, size, process, point-count, λ and malformed proportions.
func inputShape(seed uint64) (string, error) {
	ens, large := ensembleSpec(seed), largeSpec(seed)
	ens.Seed, large.Seed = 0, 0
	mix := daemonInputs(seed)
	counts := map[string]int{}
	for _, s := range mix.Specs {
		topo := fmt.Sprintf("%s/%v/%v", s.Families[0], s.Sizes, s.Degrees)
		counts[fmt.Sprintf("topology %s points %d", topo, len(s.Processes))]++
		for _, p := range s.Processes {
			counts["topology "+topo+" process "+p]++
		}
		if s.MeasureLambda {
			counts["topology "+topo+" lambda"]++
		}
		counts[fmt.Sprintf("trials %d metrics %v", s.Trials, s.Metrics)]++
	}
	seeds := map[uint64]bool{}
	for _, s := range mix.Specs {
		seeds[s.Seed] = true
	}
	counts[fmt.Sprintf("sweep seeds %d", len(seeds))]++
	malformed := 0
	for _, j := range mix.Sequence {
		if j < 0 {
			malformed++
		}
	}
	counts[fmt.Sprintf("sequence %d malformed %d", len(mix.Sequence), malformed)]++
	blob, err := json.Marshal(map[string]any{"ensemble": ens, "large": large, "daemon": counts})
	return string(blob), err
}

// selfTestInputs checks the input generator: one seed gives byte-identical
// inputs twice, and another seed gives inputs of identical shape with
// different draws.
func selfTestInputs(seed uint64) error {
	a, err := allInputs(seed)
	if err != nil {
		return err
	}
	b, err := allInputs(seed)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("seed %d generated different inputs twice", seed)
	}
	other := seed + 1
	c, err := allInputs(other)
	if err != nil {
		return err
	}
	if bytes.Equal(a, c) {
		return fmt.Errorf("seeds %d and %d generated identical inputs", seed, other)
	}
	sa, err := inputShape(seed)
	if err != nil {
		return err
	}
	sc, err := inputShape(other)
	if err != nil {
		return err
	}
	if sa != sc {
		return fmt.Errorf("seeds %d and %d generated inputs of different shape:\n%s\n%s", seed, other, sa, sc)
	}
	return nil
}
