// Command lvpredict runs the paper's §6 pipeline: load (or collect) a
// sequential runtime campaign, fit candidate distribution families,
// rank them by Kolmogorov–Smirnov p-value, and predict multi-walk
// parallel speed-ups — both from the best parametric fit and from the
// nonparametric empirical plug-in.
//
// Censored campaigns (collected with `lvseq -maxiter`) are handled
// automatically: the candidate table switches to the censored
// maximum-likelihood estimators ranked by censored log-likelihood
// (KS/AD verdicts restricted to the uncensored region), and the
// plug-in predictor becomes the Kaplan–Meier product-limit law.
//
// With -policy the same fitted law also prices the four standard
// restart strategies (no-restart, fixed-cutoff at the median, Luby,
// fitted-optimal), validates each with a seeded replay of the
// campaign plus a bootstrap CI, and prints the ranked table with the
// binding winner — byte-agreeing with lvserve's GET /v1/policy on
// the same campaign.
//
// Usage:
//
//	lvpredict -in costas12.json -cores 16,32,64,128,256
//	lvpredict -in costas12_budgeted.json            # censored input
//	lvpredict -in costas12.json -policy             # restart policies
//	lvpredict -problem all-interval -size 20 -runs 200
//	lvpredict -problem sat-3 -size 120 -runs 300
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"lasvegas"
)

func main() {
	var (
		in      = flag.String("in", "", "campaign JSON produced by lvseq (alternative to -problem)")
		problem = flag.String("problem", "", "collect live: problem family")
		size    = flag.Int("size", 0, "instance size (0 = scaled default)")
		runs    = flag.Int("runs", 200, "sequential runs when collecting live")
		seed    = flag.Uint64("seed", 1, "seed")
		coresS  = flag.String("cores", "16,32,64,128,256", "comma-separated core counts")
		alpha   = flag.Float64("alpha", 0.05, "KS significance level")
		policyF = flag.Bool("policy", false, "rank restart policies (no-restart / fixed-cutoff / Luby / fitted-optimal) with a seeded campaign replay and bootstrap CIs")
	)
	flag.Parse()

	cores, err := lasvegas.ParseCores(*coresS)
	if err != nil {
		fatal(err)
	}
	campaign, label, err := loadCampaign(*in, *problem, *size, *runs, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("sample: %s (%d observations)\n", label, len(campaign.Iterations))
	censored := campaign.IsCensored()
	if censored {
		fmt.Printf("censored: %d of %d runs (%.1f%%) at the %d-iteration budget — using Kaplan–Meier + censored MLE\n",
			len(campaign.Censored), len(campaign.Iterations), 100*campaign.CensoredFraction(), campaign.Budget)
	}
	fmt.Println()

	// §6: candidate families ranked by KS p-value (censored campaigns:
	// by censored log-likelihood, with KS/AD restricted to the
	// uncensored region), the tail-sensitive Anderson–Darling verdict
	// alongside.
	wideFams := []lasvegas.Family{lasvegas.Exponential, lasvegas.ShiftedExponential,
		lasvegas.LogNormal, lasvegas.Normal, lasvegas.Levy}
	if censored {
		wideFams = lasvegas.CensoredFamilies()
	}
	wide := lasvegas.New(
		lasvegas.WithFamilies(wideFams...),
		lasvegas.WithCensoredFit(true),
		lasvegas.WithAlpha(*alpha))
	cands, err := wide.FitAll(campaign)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-22s %-42s %9s %9s %9s %10s %s\n", "family", "fitted", "KS D", "KS p", "AD p", "logL", "verdict")
	for _, c := range cands {
		if c.Err != nil {
			fmt.Printf("%-22s %-42s %9s %9s %9s %10s could not fit (%v)\n", c.Family, "-", "-", "-", "-", "-", c.Err)
			continue
		}
		adP, logL := "-", "-"
		if c.ADValid {
			adP = fmt.Sprintf("%.4f", c.AD.PValue)
		}
		if c.LogLikValid {
			logL = fmt.Sprintf("%.4g", c.LogLik)
		}
		verdict := "accepted"
		if c.KS.RejectedAt(*alpha) {
			verdict = fmt.Sprintf("REJECTED at α=%g", *alpha)
		}
		fmt.Printf("%-22s %-42s %9.4f %9.4f %9s %10s %s\n", c.Family, c.Law, c.KS.Stat, c.KS.PValue, adP, logL, verdict)
	}

	pred := lasvegas.New(lasvegas.WithAlpha(*alpha), lasvegas.WithCensoredFit(true))
	best, err := pred.Fit(campaign)
	if err != nil {
		fatal(fmt.Errorf("no family accepted: %w", err))
	}
	plug, err := pred.PlugIn(campaign)
	if err != nil {
		fatal(err)
	}

	gof, _ := best.GoodnessOfFit()
	if est := best.Estimator(); est != lasvegas.EstimatorComplete {
		fmt.Printf("\nbest fit: %s (restricted-KS p=%.4f, %s, %.1f%% censored)\n",
			best, gof.PValue, est, 100*best.CensoredFraction())
	} else {
		fmt.Printf("\nbest fit: %s (p=%.4f)\n", best, gof.PValue)
	}
	if best.Linear() {
		fmt.Println("prediction: strictly linear speed-up (x0 = 0 exponential case)")
	}
	fmt.Printf("speed-up limit (n→∞): %.4g   tangent at origin: %.4g\n", best.Limit(), best.TangentAtOrigin())

	// The same fitted law also prices the restart strategy.
	switch opt, err := best.OptimalRestart(); {
	case err != nil:
		fmt.Printf("restart analysis: unavailable (%v)\n\n", err)
	case opt.Gain > 1.001:
		fmt.Printf("restart analysis: cutoff %.4g gains %.2fx sequentially (heavy tail)\n\n", opt.Cutoff, opt.Gain)
	default:
		fmt.Printf("restart analysis: no finite cutoff helps (gain %.3f) — parallelize instead\n\n", opt.Gain)
	}

	fmt.Printf("%-8s %16s %16s\n", "cores", "G(n) parametric", "G(n) plug-in")
	for _, n := range cores {
		gp, err := best.Speedup(n)
		if err != nil {
			fatal(err)
		}
		ge, err := plug.Speedup(n)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-8d %16.2f %16.2f\n", n, gp, ge)
	}

	if *policyF {
		table, err := pred.PolicyTable(context.Background(), campaign, best)
		if err != nil {
			fatal(err)
		}
		renderPolicyTable(os.Stdout, table)
	}
}

// renderPolicyTable prints the ranked restart-policy comparison:
// closed-form price under the fitted law, the seeded replay mean
// under the campaign's plug-in law, the bootstrap CI, and the gain
// over running to completion. Shared by the golden-file test.
func renderPolicyTable(w io.Writer, t *lasvegas.PolicyTable) {
	fmt.Fprintf(w, "\nrestart policies (law %s, %d replay reps, %d bootstrap resamples):\n", t.Law, t.Reps, t.Resamples)
	fmt.Fprintf(w, "%-16s %14s %12s %12s %26s %8s\n",
		"policy", "cutoff/unit", "E[T] law", "E[T] replay", fmt.Sprintf("%.0f%% CI (replay law)", 100*t.Level), "gain")
	for _, row := range t.Rows {
		param := "-"
		switch {
		case row.Unit > 0:
			param = fmt.Sprintf("u=%.4g", row.Unit)
		case math.IsInf(row.Cutoff, 1):
			param = "never"
		case row.Cutoff > 0:
			param = fmt.Sprintf("t=%.4g", row.Cutoff)
		}
		marker := ""
		if row.Policy == t.Winner {
			marker = "  <- winner"
		}
		fmt.Fprintf(w, "%-16s %14s %12s %12.6g %26s %8.3f%s\n",
			row.Policy, param, renderPrice(row.Expected), row.Simulated,
			fmt.Sprintf("[%s, %s]", renderPrice(row.Lo), renderPrice(row.Hi)), row.Gain, marker)
	}
	fmt.Fprintf(w, "winner: %s\n", t.Winner)
}

// renderPrice formats an expected runtime, which may be +Inf for a
// schedule that cannot succeed.
func renderPrice(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.6g", v)
}

func loadCampaign(in, problem string, size, runs int, seed uint64) (*lasvegas.Campaign, string, error) {
	switch {
	case in != "":
		c, err := lasvegas.LoadCampaign(in)
		if err != nil {
			return nil, "", err
		}
		name := c.Problem
		if name == "" {
			name = in
		}
		return c, name, nil
	case problem != "":
		p := lasvegas.New(lasvegas.WithRuns(runs), lasvegas.WithSeed(seed))
		c, err := p.Collect(context.Background(), lasvegas.Problem(problem), size)
		if err != nil {
			return nil, "", err
		}
		return c, c.Problem, nil
	}
	return nil, "", errors.New("specify -in <campaign.json> or -problem <family>")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lvpredict:", err)
	os.Exit(1)
}
