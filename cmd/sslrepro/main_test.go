package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunToy(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "toy"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "toy (Section III)") {
		t.Fatalf("output: %s", sb.String())
	}
	// The toy deviation is numerically zero.
	if !strings.Contains(sb.String(), "e-1") && !strings.Contains(sb.String(), "0.00e+00") {
		t.Fatalf("toy deviation not tiny: %s", sb.String())
	}
}

func TestRunFig1Tiny(t *testing.T) {
	var sb strings.Builder
	// Override reps to keep the test fast; the grid itself is the paper's.
	if err := run([]string{"-exp", "fig1", "-reps", "1", "-seed", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "fig1") || !strings.Contains(out, "| 1500 |") {
		t.Fatalf("fig1 output missing grid: %s", out)
	}
}

func TestRunFig5TinyCSV(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "fig5", "-reps", "1", "-perclass", "5", "-format", "csv", "-mcc"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "lambda,") {
		t.Fatalf("fig5 csv: %s", sb.String())
	}
}

func TestRunMfastTiny(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "mfast", "-reps", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "NW") {
		t.Fatalf("mfast must include the NW baseline: %s", sb.String())
	}
}

func TestRunBaselinesTiny(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "baselines", "-reps", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Nadaraya–Watson") || !strings.Contains(out, "label spreading") {
		t.Fatalf("baselines table incomplete: %s", out)
	}
}

func TestRunRegressionTiny(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "regression", "-reps", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "regression") {
		t.Fatalf("regression output: %s", sb.String())
	}
}

func TestRunDiagTiny(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "diag", "-reps", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "contraction") {
		t.Fatalf("diag output: %s", sb.String())
	}
}

func TestRunKernelsTiny(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "kernels", "-reps", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gaussian") || !strings.Contains(sb.String(), "epanechnikov") {
		t.Fatalf("kernels output: %s", sb.String())
	}
}

func TestRunCOIL6Tiny(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "coil6", "-reps", "1", "-perclass", "10"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "6-class accuracy") {
		t.Fatalf("coil6 output: %s", sb.String())
	}
}

func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.md")
	var sb strings.Builder
	if err := run([]string{"-exp", "toy", "-out", path}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "toy") {
		t.Fatal("file output missing")
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "nope"}, &sb); err == nil {
		t.Fatal("unknown experiment must error")
	}
	if err := run([]string{"-format", "xml"}, &sb); err == nil {
		t.Fatal("unknown format must error")
	}
	if err := run([]string{"-badflag"}, &sb); err == nil {
		t.Fatal("bad flag must error")
	}
}

// TestRunCSVFormat: -format csv must yield plain CSV, never a markdown table,
// for the experiments that print row tables.
func TestRunCSVFormat(t *testing.T) {
	cases := []struct{ exp, header string }{
		{"baselines", "method,rmse_mean,rmse_stderr,reps"},
		{"significance", "lambda,rmse_hard,rmse_soft,t,df,p,mean_diff"},
		{"diag", "n,mass_ratio,hard_nw_gap,contraction_rate,reps"},
		{"coil6", "lambda,accuracy_mean,accuracy_stderr,reps"},
		{"toy", "n,m,label_mean,max_dev"},
	}
	for _, tc := range cases {
		t.Run(tc.exp, func(t *testing.T) {
			var sb strings.Builder
			if err := run([]string{"-exp", tc.exp, "-reps", "2", "-perclass", "5", "-format", "csv"}, &sb); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			if first, _, _ := strings.Cut(out, "\n"); first != tc.header {
				t.Fatalf("header %q, want %q", first, tc.header)
			}
			if strings.Contains(out, "|") {
				t.Fatalf("markdown in csv output:\n%s", out)
			}
		})
	}
}
