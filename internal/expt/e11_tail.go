package expt

import (
	"context"
	"io"
	"math"
	"sort"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/stats"
)

// e11Experiment reproduces the restart argument of equation (1): the
// w.h.p. bound converts to an expectation bound because the cover-time
// tail decays geometrically — restarting after T rounds succeeds
// independently each epoch. Empirically, log P(cov > t) should fall on a
// straight line in t beyond the median; the fitted decay rate per T-epoch
// is reported.
func e11Experiment() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "Geometric tail of the cover time (equation (1) restart argument)",
		Claim: "Eq. (1): COV(u) ≤ T + O(1/n)·2T + ... = O(T) because P(cov > jT) decays geometrically in j.",
		Run:   runE11,
	}
}

func runE11(ctx context.Context, w io.Writer, p Params) error {
	p = p.withDefaults()
	n := pick(p.Scale, 512, 1024, 4096)
	trials := pick(p.Scale, 400, 2000, 10000)
	gr := rng.NewStream(p.Seed, 0xe11)
	g, err := graph.RandomRegularConnected(n, 8, gr)
	if err != nil {
		return err
	}
	covs, err := coverTimes(ctx, g, process.DefaultBranching, trials, p, 1<<18)
	if err != nil {
		return err
	}
	sort.Float64s(covs)
	s, err := summarizeOrErr(covs, "cover times")
	if err != nil {
		return err
	}

	tbl := NewTable("E11: empirical tail P(cov > t) on "+g.Name(),
		"t", "P(cov > t)", "log10 P")
	// Evaluate the survival function on a grid from the median to the max.
	lo := int(s.Median)
	hi := int(s.Max)
	var ts, logPs []float64
	for t := lo; t <= hi; t++ {
		// covs sorted ascending: count of elements > t.
		idx := sort.SearchFloat64s(covs, float64(t)+0.5)
		surv := float64(len(covs)-idx) / float64(len(covs))
		if surv <= 0 {
			break
		}
		tbl.AddRow(d(t), f4(surv), f2(math.Log10(surv)))
		ts = append(ts, float64(t))
		logPs = append(logPs, math.Log(surv))
	}
	if len(ts) >= 3 {
		fit, err := stats.LinearFit(ts, logPs)
		if err != nil {
			return err
		}
		tbl.AddNote("log-linear tail fit: log P(cov>t) ≈ %.3f·t %+.2f (R²=%.4f)", fit.Slope, fit.Intercept, fit.R2)
		if fit.Slope < 0 {
			perRound := math.Exp(fit.Slope)
			tbl.AddNote("per-round survival factor %.3f (geometric decay, as eq. (1) requires)", perRound)
			halfLife := math.Log(2) / -fit.Slope
			tbl.AddNote("tail half-life %.2f rounds vs mean cover %.2f", halfLife, s.Mean)
		}
	}
	tbl.AddNote("mean %.2f, median %.0f, p95 %.0f, max %.0f over %d trials", s.Mean, s.Median, s.P95, s.Max, trials)
	return tbl.Emit(w, p)
}
