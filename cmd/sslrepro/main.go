// Command sslrepro regenerates the experiments of "On Consistency of
// Graph-based Semi-supervised Learning" (Du, Zhao, Wang; ICDCS 2019).
//
// Usage:
//
//	sslrepro -exp fig1 [-reps 200] [-seed 1] [-format md|csv] [-out file]
//	sslrepro -exp fig5 [-perclass 250] [-reps 5] [-mcc]
//	sslrepro -exp toy
//	sslrepro -exp mfast            # extension: m growing faster than n
//	sslrepro -exp all
//
// The paper averages 1000 replications per synthetic grid point and 100
// split repetitions for COIL; the defaults here are scaled down so a laptop
// run finishes in minutes. Raise -reps/-perclass to approach the paper's
// precision.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/randx"
	"repro/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sslrepro:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sslrepro", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: fig1 fig2 fig3 fig4 fig5 toy mfast baselines regression kernels coil6 diag significance all")
		reps     = fs.Int("reps", 0, "replications per grid point (0 = per-experiment default)")
		seed     = fs.Int64("seed", 1, "root random seed")
		perClass = fs.Int("perclass", 100, "COIL-like images kept per class (paper: 250)")
		format   = fs.String("format", "md", "output format: md or csv")
		outPath  = fs.String("out", "", "write to file instead of stdout")
		mcc      = fs.Bool("mcc", false, "also report MCC for fig5")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "md" && *format != "csv" {
		return fmt.Errorf("unknown format %q", *format)
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "sslrepro: close output:", cerr)
			}
		}()
		out = f
	}

	runOne := func(name string) error {
		switch name {
		case "fig1", "fig2", "fig3", "fig4":
			r := *reps
			if r == 0 {
				r = 200
			}
			var cfg experiments.SyntheticConfig
			switch name {
			case "fig1":
				cfg = experiments.Fig1Config(r, *seed)
			case "fig2":
				cfg = experiments.Fig2Config(r, *seed)
			case "fig3":
				cfg = experiments.Fig3Config(r, *seed)
			default:
				cfg = experiments.Fig4Config(r, *seed)
			}
			res, err := experiments.RunSynthetic(name, cfg)
			if err != nil {
				return err
			}
			return writeSweep(res, *format, out)
		case "fig5":
			r := *reps
			if r == 0 {
				r = 3
			}
			cfg := experiments.Fig5DefaultCfg(*perClass, r, *seed)
			cfg.MCC = *mcc
			res, err := experiments.RunFig5(cfg)
			if err != nil {
				return err
			}
			if *format == "csv" {
				return res.WriteCSV(out)
			}
			return res.WriteMarkdown(out)
		case "toy":
			return runToy(out, *seed, *format)
		case "mfast":
			r := *reps
			if r == 0 {
				r = 100
			}
			cfg := experiments.SyntheticConfig{
				Model:     synth.Model1,
				SweepM:    []int{50, 100, 200, 400, 800, 1600},
				N:         50,
				Lambdas:   []float64{0, 0.01, 0.1, 5},
				IncludeNW: true,
				Reps:      r,
				Seed:      *seed,
			}
			res, err := experiments.RunSynthetic("mfast (m ≫ n extension)", cfg)
			if err != nil {
				return err
			}
			return writeSweep(res, *format, out)
		case "baselines":
			r := *reps
			if r == 0 {
				r = 50
			}
			rows, err := experiments.RunBaselines(experiments.BaselinesDefaultConfig(r, *seed))
			if err != nil {
				return err
			}
			if *format == "csv" {
				return experiments.WriteBaselineCSV(rows, out)
			}
			fmt.Fprintf(out, "### baselines — mean RMSE on Model 1 (n=200, m=50, %d reps)\n\n", r)
			fmt.Fprintln(out, "| method | RMSE | stderr |")
			fmt.Fprintln(out, "|---|---|---|")
			for _, row := range rows {
				fmt.Fprintf(out, "| %s | %.4f | %.4f |\n", row.Method, row.Mean, row.StdErr)
			}
			return nil
		case "regression":
			r := *reps
			if r == 0 {
				r = 50
			}
			res, err := experiments.RunRegression(experiments.RegressionDefaultConfig(r, *seed))
			if err != nil {
				return err
			}
			return writeSweep(res, *format, out)
		case "kernels":
			r := *reps
			if r == 0 {
				r = 50
			}
			res, err := experiments.RunKernels(experiments.KernelsDefaultConfig(r, *seed))
			if err != nil {
				return err
			}
			return writeSweep(res, *format, out)
		case "significance":
			r := *reps
			if r == 0 {
				r = 100
			}
			rows, err := experiments.RunSignificance(experiments.SignificanceDefaultConfig(r, *seed))
			if err != nil {
				return err
			}
			if *format == "csv" {
				return experiments.WriteSignificanceCSV(rows, out)
			}
			fmt.Fprintf(out, "### significance — paired hard-vs-soft RMSE, Model 1 (n=200, m=50, %d paired reps)\n\n", r)
			fmt.Fprintln(out, "| λ | RMSE hard | RMSE soft | paired test (hard−soft) |")
			fmt.Fprintln(out, "|---|---|---|---|")
			for _, row := range rows {
				fmt.Fprintf(out, "| %g | %.4f | %.4f | %s |\n",
					row.Lambda, row.HardMean, row.SoftMean, row.Test)
			}
			return nil
		case "diag":
			r := *reps
			if r == 0 {
				r = 25
			}
			rows, err := experiments.RunDiag(experiments.DiagDefaultConfig(r, *seed))
			if err != nil {
				return err
			}
			if *format == "csv" {
				return experiments.WriteDiagCSV(rows, out)
			}
			fmt.Fprintf(out, "### diag — Theorem II.1 proof quantities (avg over %d reps)\n\n", r)
			fmt.Fprintln(out, "| n | unlabeled-mass ratio | hard–NW gap | contraction ρ |")
			fmt.Fprintln(out, "|---|---|---|---|")
			for _, row := range rows {
				fmt.Fprintf(out, "| %d | %.4f | %.4f | %.4f |\n",
					row.N, row.MassRatio, row.HardNWGap, row.ContractionRate)
			}
			return nil
		case "coil6":
			r := *reps
			if r == 0 {
				r = 2
			}
			pts, err := experiments.RunCOIL6(experiments.COIL6DefaultConfig(*perClass, r, *seed))
			if err != nil {
				return err
			}
			if *format == "csv" {
				fmt.Fprintln(out, "lambda,accuracy_mean,accuracy_stderr,reps")
				for _, p := range pts {
					fmt.Fprintf(out, "%g,%.6f,%.6f,%d\n", p.X, p.Mean, p.StdErr, p.Reps)
				}
				return nil
			}
			fmt.Fprintf(out, "### coil6 — 6-class accuracy, 20%% labeled (avg over %d split-experiments)\n\n", pts[0].Reps)
			fmt.Fprintln(out, "| λ | accuracy | stderr |")
			fmt.Fprintln(out, "|---|---|---|")
			for _, p := range pts {
				fmt.Fprintf(out, "| %g | %.4f | %.4f |\n", p.X, p.Mean, p.StdErr)
			}
			return nil
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	if *exp == "all" {
		for _, name := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "toy"} {
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if _, err := fmt.Fprintln(out); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(*exp)
}

func writeSweep(res *experiments.SweepResult, format string, out io.Writer) error {
	if format == "csv" {
		return res.WriteCSV(out)
	}
	return res.WriteMarkdown(out)
}

// runToy demonstrates the paper's Section III toy example numerically: with
// identical inputs the hard criterion predicts exactly the labeled mean on
// unlabeled points.
func runToy(out io.Writer, seed int64, format string) error {
	const n, m = 20, 10
	rng := randx.New(seed)
	ds, err := synth.GenerateToy(rng, n, m, 0.7)
	if err != nil {
		return err
	}
	k, err := kernel.New(kernel.Gaussian, 1)
	if err != nil {
		return err
	}
	builder, err := graph.NewBuilder(k)
	if err != nil {
		return err
	}
	g, err := builder.Build(ds.X)
	if err != nil {
		return err
	}
	p, err := core.NewProblemLabeledFirst(g, ds.YLabeled())
	if err != nil {
		return err
	}
	sol, err := core.SolveHard(p)
	if err != nil {
		return err
	}
	var mean float64
	for _, v := range ds.YLabeled() {
		mean += v
	}
	mean /= n
	var maxDev float64
	for _, v := range sol.FUnlabeled {
		if d := math.Abs(v - mean); d > maxDev {
			maxDev = d
		}
	}
	if format == "csv" {
		_, err = fmt.Fprintf(out, "n,m,label_mean,max_dev\n%d,%d,%.6f,%.6g\n", n, m, mean, maxDev)
		return err
	}
	_, err = fmt.Fprintf(out,
		"### toy (Section III)\n\nn=%d m=%d identical inputs; labeled mean ȳ = %.4f\n"+
			"max |f̂_unlabeled − ȳ| = %.2e  (theory: exactly 0)\n",
		n, m, mean, maxDev)
	return err
}
