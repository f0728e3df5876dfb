package difftest

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
)

// Two-sample Kolmogorov–Smirnov checks that the parallel round kernels
// draw from the same cover-time distribution as the sequential engines.
// The kernels spend per-chunk streams instead of the trial stream, so
// they are statistically equivalent variants, not byte-equal ones: the
// lockstep harness cannot see a biased chunk stream, this can.
//
// Every sample comes from fixed seeds, so each verdict is a fixed
// function of the code and the test cannot flake; the false-alarm rate
// at the stated critical value is the probability that a correct kernel
// fails for a given seed choice.
const (
	distN      = 1 << 15
	distDegree = 8
	distTrials = 600

	// ksAlpha is the false-alarm level of every check. For two samples
	// of m = n = 600 the asymptotic critical value is
	// sqrt(-ln(α/2)/2)·sqrt((m+n)/(m·n)) = 0.113 at α = 1e-3.
	ksAlpha = 1e-3
)

// ksCritical returns the asymptotic two-sample KS critical value at
// level alpha for sample sizes m and n.
func ksCritical(alpha float64, m, n int) float64 {
	return math.Sqrt(-math.Log(alpha/2)/2) * math.Sqrt(float64(m+n)/float64(m*n))
}

// ksStatistic returns sup_x |F_a(x) − F_b(x)| of the two samples'
// empirical CDFs. It sorts both slices.
func ksStatistic(a, b []int) float64 {
	slices.Sort(a)
	slices.Sort(b)
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// coverRounds runs distTrials trials of process name on g from vertex 0
// and returns their round counts. Trial i draws from rng.New(seed+i), and
// trials are spread over a few goroutines, each with its own engine at
// one kernel worker.
func coverRounds(t *testing.T, g *graph.Graph, name string, cfg process.Config, seed uint64) []int {
	t.Helper()
	const goroutines = 4
	cfg.KernelWorkers = 1
	rounds := make([]int, distTrials)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		p, err := process.New(name, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, p process.Process) {
			defer wg.Done()
			for i := w; i < distTrials; i += goroutines {
				res, err := process.Run(p, rng.New(seed+uint64(i)), 0, 0)
				if err == nil && !res.Done {
					err = fmt.Errorf("trial %d hit the round cap", i)
				}
				if err != nil {
					errs[w] = err
					return
				}
				rounds[i] = res.Rounds
			}
		}(w, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return rounds
}

// TestKernelCoverDistribution compares each kernel engine's cover-round
// distribution with its sequential engine's on rand-reg n=2^15, d=8
// (16 chunks, so both bips-par round forms and both cobra-par frontier
// orders are exercised), and checks that the test has teeth: bips-par
// at K=3 against bips at K=2 must be rejected.
func TestKernelCoverDistribution(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("statistical check: 4800 trials at n=2^15 (skipped under -race and -short)")
	}
	g, err := graph.RandomRegularConnected(distN, distDegree, rng.New(2024))
	if err != nil {
		t.Fatal(err)
	}
	crit := ksCritical(ksAlpha, distTrials, distTrials)
	k2 := process.Branching{K: 2}
	cases := []struct {
		name           string
		seq, par       string
		seqCfg, parCfg process.Config
		wantReject     bool
	}{
		{"cobra", process.Cobra, process.CobraPar, process.Config{}, process.Config{}, false},
		{"bips/exact", process.BIPS, process.BIPSPar, process.Config{}, process.Config{}, false},
		{"bips/fast", process.BIPS, process.BIPSPar,
			process.Config{FastSampling: true}, process.Config{FastSampling: true}, false},
		{"bips/k=1+rho0.5", process.BIPS, process.BIPSPar,
			process.Config{Branching: process.Branching{K: 1, Rho: 0.5}},
			process.Config{Branching: process.Branching{K: 1, Rho: 0.5}}, false},
		{"has-teeth/bips-par-k3-vs-bips-k2", process.BIPS, process.BIPSPar,
			process.Config{Branching: k2}, process.Config{Branching: process.Branching{K: 3}}, true},
	}
	for i, c := range cases {
		i, c := i, c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			seed := uint64(1000 * (i + 1))
			a := coverRounds(t, g, c.seq, c.seqCfg, seed)
			b := coverRounds(t, g, c.par, c.parCfg, seed+1<<32)
			d := ksStatistic(a, b)
			t.Logf("D = %.4f, critical value %.4f at α = %g", d, crit, ksAlpha)
			if reject := d > crit; reject != c.wantReject {
				t.Errorf("D = %.4f against critical value %.4f: rejected = %v, want %v",
					d, crit, reject, c.wantReject)
			}
		})
	}
}
