package expt

import (
	"context"
	"io"
	"math"
	"time"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
)

// e13Experiment is the implementation ablation called out in DESIGN.md:
// the BIPS step can draw each vertex's k neighbour samples explicitly
// ("exact", the process as defined) or draw the infection event from its
// closed-form probability 1-(1-d_A/d)^k·(1-ρd_A/d) ("fast"). The two are
// identical in distribution; the ablation verifies that equivalence
// statistically (infection-time means within Monte-Carlo error) and
// measures the runtime difference that justifies keeping both paths.
func e13Experiment() Experiment {
	return Experiment{
		ID:    "E13",
		Title: "Ablation: exact vs closed-form BIPS sampling",
		Claim: "Implementation ablation (DESIGN.md): the two sampling paths are distribution-identical; speed differs.",
		Run:   runE13,
	}
}

func runE13(ctx context.Context, w io.Writer, p Params) error {
	p = p.withDefaults()
	n := pick(p.Scale, 512, 2048, 8192)
	trials := pick(p.Scale, 60, 200, 500)
	gr := rng.NewStream(p.Seed, 0xe13)

	tbl := NewTable("E13: BIPS sampling-path ablation",
		"graph", "path", "branching", "mean infec", "SE", "wall-clock/run")
	for _, deg := range []int{4, 16} {
		g, err := graph.RandomRegularConnected(n, deg, gr)
		if err != nil {
			return err
		}
		for _, br := range []process.Branching{{K: 2}, {K: 1, Rho: 0.5}} {
			var exactMean, exactSE, fastMean, fastSE float64
			for _, fast := range []bool{false, true} {
				if err := ctx.Err(); err != nil {
					return err
				}
				name := "exact"
				if fast {
					name = "fast"
				}
				proc, err := process.New(process.BIPS, g, process.Config{Branching: br, FastSampling: fast})
				if err != nil {
					return err
				}
				times := make([]float64, 0, trials)
				start := time.Now()
				r := rng.NewStream(p.Seed^uint64(deg), map[bool]uint64{false: 1, true: 2}[fast])
				for i := 0; i < trials; i++ {
					res, err := process.Run(proc, r, 1<<18, 0)
					if err != nil {
						return err
					}
					if !res.Done {
						continue
					}
					times = append(times, float64(res.Rounds))
				}
				perRun := time.Since(start) / time.Duration(trials)
				s, err := summarizeOrErr(times, "infection times")
				if err != nil {
					return err
				}
				tbl.AddRow(g.Name(), name, br.String(), f2(s.Mean), f2(s.SE()), perRun.String())
				if fast {
					fastMean, fastSE = s.Mean, s.SE()
				} else {
					exactMean, exactSE = s.Mean, s.SE()
				}
			}
			z := math.Abs(exactMean-fastMean) / math.Hypot(exactSE, fastSE)
			verdict := "equivalent"
			if z > 4 {
				verdict = "DIVERGENT — bug"
			}
			tbl.AddNote("%s %s: |Δmean| = %.3f (z = %.2f) → %s", g.Name(), br.String(),
				math.Abs(exactMean-fastMean), z, verdict)
		}
	}
	return tbl.Emit(w, p)
}
