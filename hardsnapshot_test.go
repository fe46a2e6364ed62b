package graphssl

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// solveFailed reports whether a Fit error came from the solve after the
// coverage check passed: a numerically singular system, or a solver
// failure such as stagnation. HardSnapshot runs no solve, so these are the
// inputs on which it succeeds where Fit fails.
func solveFailed(err error) bool {
	return err != nil && (strings.Contains(err.Error(), "numerically singular") || errors.Is(err, core.ErrSolver))
}

// outcome names the sentinel an error carries, for comparing two paths.
func outcome(err error) string {
	for _, s := range []error{ErrParam, ErrIsolated, context.Canceled, context.DeadlineExceeded} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	if err != nil {
		return "untyped: " + err.Error()
	}
	return "ok"
}

// checkHardSnapshot runs one input through HardSnapshot and compares it
// with Fit's outcome on the same input (res, fitErr). A soft criterion must
// fail with ErrParam. Otherwise both must fail with the same sentinel, or
// both succeed with snapshots that agree bit for bit on every field a
// labeled-anchor model reads: all points, the responses, the labeled set
// and its scores, the kernel, bandwidth, kNN and λ; the hard snapshot's
// unlabeled scores are NaN. The one allowed difference is a Fit that fails
// in its solve (solveFailed), on which HardSnapshot succeeds.
func checkHardSnapshot(t testing.TB, x [][]float64, y []float64, labeled []int, opts []Option, res *Result, fitErr error) {
	t.Helper()
	snap, err := HardSnapshot(x, y, labeled, opts...)
	if lambda := newConfig(opts).lambda; lambda != 0 {
		if !errors.Is(err, ErrParam) {
			t.Fatalf("HardSnapshot with λ=%v: err = %v, want ErrParam", lambda, err)
		}
		return
	}
	if fitErr != nil && !solveFailed(fitErr) {
		if outcome(err) != outcome(fitErr) {
			t.Fatalf("Fit failed with %v, HardSnapshot with %v", fitErr, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("Fit gave %v, HardSnapshot failed: %v", fitErr, err)
	}
	isLabeled := make([]bool, len(x))
	for _, l := range snap.Labeled {
		isLabeled[l] = true
	}
	for i, s := range snap.Scores {
		if !isLabeled[i] && !math.IsNaN(s) {
			t.Fatalf("unlabeled score %d = %v, want NaN", i, s)
		}
	}
	if fitErr != nil {
		return
	}
	want, err := res.Snapshot(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameLabeledSnapshot(snap, want); err != nil {
		t.Fatal(err)
	}
}

// sameLabeledSnapshot compares two snapshots on what a labeled-anchor
// model reads, bit for bit.
func sameLabeledSnapshot(got, want *ModelSnapshot) error {
	bits := math.Float64bits
	switch {
	case len(got.X) != len(want.X) || len(got.Scores) != len(want.Scores):
		return fmt.Errorf("%d points and %d scores, want %d and %d", len(got.X), len(got.Scores), len(want.X), len(want.Scores))
	case fmt.Sprint(got.Labeled) != fmt.Sprint(want.Labeled):
		return fmt.Errorf("labeled %v, want %v", got.Labeled, want.Labeled)
	case got.Kernel != want.Kernel || bits(got.Bandwidth) != bits(want.Bandwidth) ||
		got.KNN != want.KNN || bits(got.Lambda) != bits(want.Lambda):
		return fmt.Errorf("kernel %v h %v knn %d λ %v, want %v %v %d %v",
			got.Kernel, got.Bandwidth, got.KNN, got.Lambda, want.Kernel, want.Bandwidth, want.KNN, want.Lambda)
	}
	for i := range want.X {
		if len(got.X[i]) != len(want.X[i]) {
			return fmt.Errorf("point %d has dim %d, want %d", i, len(got.X[i]), len(want.X[i]))
		}
		for j := range want.X[i] {
			if bits(got.X[i][j]) != bits(want.X[i][j]) {
				return fmt.Errorf("point %d coordinate %d = %v, want %v", i, j, got.X[i][j], want.X[i][j])
			}
		}
	}
	if len(got.Y) != len(want.Y) {
		return fmt.Errorf("%d responses, want %d", len(got.Y), len(want.Y))
	}
	for k, l := range want.Labeled {
		if bits(got.Y[k]) != bits(want.Y[k]) || bits(got.Scores[l]) != bits(want.Scores[l]) {
			return fmt.Errorf("labeled point %d: response %v score %v, want %v %v", l, got.Y[k], got.Scores[l], want.Y[k], want.Scores[l])
		}
	}
	return nil
}

// TestHardSnapshotMatchesFit runs the robust inputs and the ingest
// fixture (5,000 points of the 20,000-point grid, Epanechnikov) through
// both paths. FuzzFit does the same for its seeds and corpus.
func TestHardSnapshotMatchesFit(t *testing.T) {
	for _, tc := range robustCases() {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Fit(tc.x, tc.y, tc.lab, tc.opts...)
			checkHardSnapshot(t, tc.x, tc.y, tc.lab, tc.opts, res, err)
		})
	}
	t.Run("ingest-5k", func(t *testing.T) {
		x, all, h := ingestPoints(5000, 1)
		var y []float64
		var labeled []int
		for i := 0; i < len(x); i += 10 {
			labeled = append(labeled, i)
			y = append(y, all[i])
		}
		opts := []Option{WithKernel(Epanechnikov), WithBandwidth(h), WithWorkers(1)}
		res, err := Fit(x, y, labeled, opts...)
		if err != nil {
			t.Fatal(err)
		}
		checkHardSnapshot(t, x, y, labeled, opts, res, err)
	})
}

// TestHardSnapshotRunsNoSolve checks the stages and counters of the
// snapshot path: a diagnostics report with the bandwidth, graph and
// problem stages and no solve, graphssl.solver_chosen unmoved, and
// fits_total, fit_errors_total and snapshots_total moved as Fit plus
// Snapshot move them.
func TestHardSnapshotRunsNoSolve(t *testing.T) {
	x, y, labeled := robustTestData(9, 80, 20)
	solvers := expvar.Get("graphssl.solver_chosen").String()
	fits, fitErrs := expvarInt(t, "graphssl.fits_total"), expvarInt(t, "graphssl.fit_errors_total")
	snaps := expvarInt(t, "graphssl.snapshots_total")
	var rep Report
	if _, err := HardSnapshot(x, y, labeled, WithDiagnostics(&rep)); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range rep.Stages {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, ","); got != "bandwidth,graph,problem" {
		t.Fatalf("stages = %s, want bandwidth,graph,problem", got)
	}
	if rep.Bandwidth <= 0 || rep.Solver != 0 || rep.Err != "" {
		t.Fatalf("report: bandwidth %v, solver %v, err %q", rep.Bandwidth, rep.Solver, rep.Err)
	}
	if got := expvar.Get("graphssl.solver_chosen").String(); got != solvers {
		t.Fatalf("solver_chosen moved: %s -> %s", solvers, got)
	}
	if expvarInt(t, "graphssl.fits_total") != fits+1 || expvarInt(t, "graphssl.snapshots_total") != snaps+1 ||
		expvarInt(t, "graphssl.fit_errors_total") != fitErrs {
		t.Fatal("fits_total and snapshots_total must move by one, fit_errors_total not at all")
	}

	// A failure moves fits_total and fit_errors_total, not snapshots_total,
	// and lands in the report.
	if _, err := HardSnapshot(x, y, labeled, WithBandwidth(-1), WithDiagnostics(&rep)); !errors.Is(err, ErrParam) {
		t.Fatalf("negative bandwidth: err = %v, want ErrParam", err)
	}
	if rep.Err == "" || expvarInt(t, "graphssl.fits_total") != fits+2 ||
		expvarInt(t, "graphssl.fit_errors_total") != fitErrs+1 || expvarInt(t, "graphssl.snapshots_total") != snaps+1 {
		t.Fatalf("failed snapshot: report err %q, counters not moved as one failed fit", rep.Err)
	}
}

// TestHardSnapshotRejectsSoftCriterion: any λ other than 0 is ErrParam,
// before the graph is built.
func TestHardSnapshotRejectsSoftCriterion(t *testing.T) {
	x, y, labeled := robustTestData(10, 40, 10)
	for _, l := range []float64{0.5, -1, math.NaN(), math.Inf(1)} {
		var rep Report
		_, err := HardSnapshot(x, y, labeled, WithLambda(l), WithDiagnostics(&rep))
		if !errors.Is(err, ErrParam) || len(rep.Stages) != 0 {
			t.Fatalf("λ=%v: err = %v after stages %v, want ErrParam before any stage", l, err, rep.Stages)
		}
	}
	if _, err := HardSnapshot(x, y, labeled, WithLambda(0)); err != nil {
		t.Fatalf("λ=0: %v", err)
	}
}
