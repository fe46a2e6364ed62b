package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const demoCSV = `x1,x2,y
0,0,1
0.1,0,1
2,2,0
2.1,2,0
0.05,0.05,
2.05,2.05,
`

func TestRunPredictsClusters(t *testing.T) {
	path := writeTemp(t, demoCSV)
	var sb strings.Builder
	if err := run([]string{"-in", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "4 labeled, 2 unlabeled") {
		t.Fatalf("header wrong: %s", out)
	}
	// Row 4 is near cluster 1, row 5 near cluster 0.
	if !strings.Contains(out, "\n4,") || !strings.Contains(out, "\n5,") {
		t.Fatalf("rows missing: %s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last2 := lines[len(lines)-2:]
	if !strings.HasSuffix(last2[0], ",1") || !strings.HasSuffix(last2[1], ",0") {
		t.Fatalf("classification wrong: %v", last2)
	}
}

func TestRunSolverAndKernelFlags(t *testing.T) {
	path := writeTemp(t, demoCSV)
	var sb strings.Builder
	err := run([]string{"-in", path, "-solver", "cg", "-kernel", "epanechnikov", "-bandwidth", "5", "-lambda", "0.1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "λ=0.1") {
		t.Fatalf("lambda not applied: %s", sb.String())
	}
}

func TestRunKNNFlag(t *testing.T) {
	path := writeTemp(t, demoCSV)
	var sb strings.Builder
	if err := run([]string{"-in", path, "-knn", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
}

func TestRunNoHeader(t *testing.T) {
	path := writeTemp(t, "0,0,1\n1,1,0\n0.5,0.5,\n")
	var sb strings.Builder
	if err := run([]string{"-in", path, "-header=false"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2 labeled, 1 unlabeled") {
		t.Fatalf("no-header parse wrong: %s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		csv  string
		args []string
	}{
		{"missing in", "", []string{}},
		{"no labeled", "x,y\n1,\n2,\n", nil},
		{"no unlabeled", "x,y\n1,1\n2,0\n", nil},
		{"bad feature", "x,y\nfoo,1\n2,\n", nil},
		{"bad response", "x,y\n1,bar\n2,\n", nil},
		{"one column", "y\n1\n\n", nil},
		{"empty", "x,y\n", nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			args := tt.args
			if args == nil {
				args = []string{"-in", writeTemp(t, tt.csv)}
			}
			var sb strings.Builder
			if err := run(args, &sb); err == nil {
				t.Fatal("want error")
			}
		})
	}
	var sb strings.Builder
	if err := run([]string{"-in", "/nonexistent/file.csv"}, &sb); err == nil {
		t.Fatal("missing file must error")
	}
	path := writeTemp(t, demoCSV)
	for _, solver := range []string{"warp", "lu", "propagation"} {
		if err := run([]string{"-in", path, "-solver", solver}, &sb); err == nil {
			t.Fatalf("unknown solver %q must error", solver)
		}
	}
	if err := run([]string{"-in", path, "-kernel", "warp"}, &sb); err == nil {
		t.Fatal("unknown kernel must error")
	}
}
