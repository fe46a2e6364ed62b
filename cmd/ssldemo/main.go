// Command ssldemo fits graph-based semi-supervised learning to a CSV file
// and prints predicted scores for the unlabeled rows.
//
// Input format: one row per point; all columns but the last are features;
// the last column is the response, with an empty field marking unlabeled
// rows.
//
//	x1,x2,y
//	0.1,0.2,1
//	0.3,0.1,0
//	0.2,0.2,        <- unlabeled; will be predicted
//
// Usage:
//
//	ssldemo -in data.csv [-lambda 0] [-kernel gaussian] [-bandwidth 0]
//	        [-knn 0] [-solver auto|cholesky|cg]
//
// With -bandwidth 0 the median heuristic is used.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	graphssl "repro"
	"repro/internal/kernel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssldemo:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ssldemo", flag.ContinueOnError)
	var (
		inPath    = fs.String("in", "", "input CSV (required)")
		lambda    = fs.Float64("lambda", 0, "soft-criterion λ (0 = hard criterion)")
		kern      = fs.String("kernel", "gaussian", "kernel: gaussian uniform epanechnikov triangular tricube")
		bandwidth = fs.Float64("bandwidth", 0, "kernel bandwidth (0 = median heuristic)")
		knn       = fs.Int("knn", 0, "k-NN graph sparsification (0 = full graph)")
		solver    = fs.String("solver", "auto", "solver: auto cholesky cg")
		header    = fs.Bool("header", true, "input has a header row")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" {
		return fmt.Errorf("-in is required")
	}

	x, y, labeled, err := readCSV(*inPath, *header)
	if err != nil {
		return err
	}

	kind, err := kernel.Parse(*kern)
	if err != nil {
		return err
	}
	s, err := parseSolver(*solver)
	if err != nil {
		return err
	}
	opts := []graphssl.Option{
		graphssl.WithKernel(kind),
		graphssl.WithLambda(*lambda),
		graphssl.WithSolver(s),
	}
	if *bandwidth > 0 {
		opts = append(opts, graphssl.WithBandwidth(*bandwidth))
	}
	if *knn > 0 {
		opts = append(opts, graphssl.WithKNN(*knn))
	}

	res, err := graphssl.Fit(x, y, labeled, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# %d points, %d labeled, %d unlabeled; λ=%g, bandwidth=%.4g, solver=%v\n",
		len(x), len(res.Labeled), len(res.Unlabeled), res.Lambda, res.Bandwidth, res.Solver)
	fmt.Fprintln(out, "row,score,class")
	for i, idx := range res.Unlabeled {
		score := res.UnlabeledScores[i]
		class := 0
		if score > 0.5 {
			class = 1
		}
		fmt.Fprintf(out, "%d,%.6f,%d\n", idx, score, class)
	}
	return nil
}

func parseSolver(name string) (graphssl.Solver, error) {
	switch name {
	case "auto":
		return graphssl.SolverAuto, nil
	case "cholesky":
		return graphssl.SolverCholesky, nil
	case "cg":
		return graphssl.SolverCG, nil
	default:
		return 0, fmt.Errorf("unknown solver %q", name)
	}
}

// readCSV parses the feature matrix and the trailing response column.
func readCSV(path string, hasHeader bool) (x [][]float64, y []float64, labeled []int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.TrimLeadingSpace = true
	rows, err := r.ReadAll()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if hasHeader && len(rows) > 0 {
		rows = rows[1:]
	}
	if len(rows) == 0 {
		return nil, nil, nil, fmt.Errorf("%s: no data rows", path)
	}
	for i, row := range rows {
		if len(row) < 2 {
			return nil, nil, nil, fmt.Errorf("%s row %d: need >=2 columns", path, i+1)
		}
		feats := make([]float64, len(row)-1)
		for j, cell := range row[:len(row)-1] {
			v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%s row %d col %d: %w", path, i+1, j+1, err)
			}
			feats[j] = v
		}
		x = append(x, feats)
		resp := strings.TrimSpace(row[len(row)-1])
		if resp == "" {
			continue
		}
		v, err := strconv.ParseFloat(resp, 64)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s row %d response: %w", path, i+1, err)
		}
		labeled = append(labeled, i)
		y = append(y, v)
	}
	if len(labeled) == 0 {
		return nil, nil, nil, fmt.Errorf("%s: no labeled rows", path)
	}
	if len(labeled) == len(x) {
		return nil, nil, nil, fmt.Errorf("%s: no unlabeled rows to predict", path)
	}
	return x, y, labeled, nil
}
