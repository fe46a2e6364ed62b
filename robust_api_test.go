package graphssl

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"
)

func robustTestData(seed int64, n, labels int) ([][]float64, []float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	y := make([]float64, labels)
	labeled := make([]int, labels)
	for i := range y {
		y[i] = float64(rng.Intn(2))
		labeled[i] = i
	}
	return x, y, labeled
}

func expvarInt(t *testing.T, name string) int64 {
	t.Helper()
	v := expvar.Get(name)
	if v == nil {
		t.Fatalf("expvar %q not published", name)
	}
	n, err := strconv.ParseInt(v.String(), 10, 64)
	if err != nil {
		t.Fatalf("expvar %q = %q: %v", name, v.String(), err)
	}
	return n
}

// TestFitOversizedKNN fits 600 planar points (the KD-tree path) with a
// kNN far above the point count: the build must cost what k = n−1 costs,
// not memory proportional to k, and select the same graph.
func TestFitOversizedKNN(t *testing.T) {
	x, y, labeled := robustTestData(41, 600, 60)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	huge, err := Fit(x, y, labeled, WithKNN(1<<20))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Fatalf("WithKNN(1<<20) allocated %d MB, want under 64 MB", alloc>>20)
	}
	ref, err := Fit(x, y, labeled, WithKNN(599))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Scores {
		if math.Float64bits(huge.Scores[i]) != math.Float64bits(ref.Scores[i]) {
			t.Fatalf("score %d: %v with k = 2^20, %v with k = 599", i, huge.Scores[i], ref.Scores[i])
		}
	}
}

func TestFitCanceledContext(t *testing.T) {
	x, y, labeled := robustTestData(1, 60, 15)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := expvarInt(t, "graphssl.cancellations_total")
	_, err := Fit(x, y, labeled, WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := expvarInt(t, "graphssl.cancellations_total"); got != before+1 {
		t.Fatalf("cancellations_total %d -> %d, want +1", before, got)
	}
}

func TestFitDeadlineExceeded(t *testing.T) {
	x, y, labeled := robustTestData(2, 40, 10)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Fit(x, y, labeled, WithContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestWithDiagnosticsReport(t *testing.T) {
	x, y, labeled := robustTestData(3, 80, 20)
	var rep Report
	res, err := Fit(x, y, labeled, WithDiagnostics(&rep))
	if err != nil {
		t.Fatal(err)
	}
	wantStages := []string{"bandwidth", "graph", "problem", "solve"}
	if len(rep.Stages) != len(wantStages) {
		t.Fatalf("stages = %v", rep.Stages)
	}
	for i, s := range rep.Stages {
		if s.Name != wantStages[i] {
			t.Fatalf("stage %d = %q, want %q", i, s.Name, wantStages[i])
		}
		if s.Duration < 0 {
			t.Fatalf("stage %q has negative duration", s.Name)
		}
	}
	if rep.Total() <= 0 {
		t.Fatalf("total duration %v", rep.Total())
	}
	if rep.Bandwidth <= 0 {
		t.Fatalf("bandwidth %v not recorded", rep.Bandwidth)
	}
	if rep.Solver != res.Solver {
		t.Fatalf("report solver %v != result solver %v", rep.Solver, res.Solver)
	}
	if rep.Err != "" {
		t.Fatalf("successful fit recorded error %q", rep.Err)
	}
	if len(rep.Fallbacks) != 0 {
		t.Fatalf("healthy fit recorded fallbacks %+v", rep.Fallbacks)
	}
}

func TestWithDiagnosticsReportIsReset(t *testing.T) {
	x, y, labeled := robustTestData(4, 50, 12)
	rep := Report{Err: "stale", Stages: []Stage{{Name: "stale"}}}
	if _, err := Fit(x, y, labeled, WithDiagnostics(&rep)); err != nil {
		t.Fatal(err)
	}
	if rep.Err != "" || (len(rep.Stages) > 0 && rep.Stages[0].Name == "stale") {
		t.Fatalf("report not reset: %+v", rep)
	}
}

func TestDiagnosticsDoNotPerturbScores(t *testing.T) {
	x, y, labeled := robustTestData(5, 70, 18)
	plain, err := Fit(x, y, labeled)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	diag, err := Fit(x, y, labeled, WithDiagnostics(&rep))
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Scores {
		if plain.Scores[i] != diag.Scores[i] {
			t.Fatalf("scores differ at %d with diagnostics enabled", i)
		}
	}
}

// TestFitFallbackRecordedInReport drives SolverAuto into its CG-first chain
// with a starved iteration budget and checks the escalation shows up in the
// public report.
func TestFitFallbackRecordedInReport(t *testing.T) {
	x, y, labeled := robustTestData(6, 80, 15)
	before := expvarInt(t, "graphssl.fallbacks_total")
	var rep Report
	// Jacobi keeps the one-iteration budget insufficient; IC(0) is exact on
	// this dense-pattern system and would converge immediately.
	res, err := Fit(x, y, labeled,
		WithAutoCutoff(1), WithMaxIter(1), WithTolerance(1e-14),
		WithPreconditioner(PrecondJacobi), WithDiagnostics(&rep))
	if err != nil {
		t.Fatalf("fallback chain did not complete: %v", err)
	}
	if res.Solver != SolverCholesky {
		t.Fatalf("settled on %v, want cholesky", res.Solver)
	}
	if len(rep.Plan) != 2 || rep.Plan[0] != SolverCG || rep.Plan[1] != SolverCholesky {
		t.Fatalf("plan = %v", rep.Plan)
	}
	if len(rep.Fallbacks) != 1 || rep.Fallbacks[0].From != SolverCG || rep.Fallbacks[0].To != SolverCholesky {
		t.Fatalf("fallbacks = %+v", rep.Fallbacks)
	}
	if rep.Fallbacks[0].Reason == "" {
		t.Fatal("fallback recorded without a reason")
	}
	if rep.Health == nil {
		t.Fatal("CG-first plan ran without a health probe")
	}
	if rep.Health.Unknowns != len(x)-len(labeled) {
		t.Fatalf("health unknowns = %d, want %d", rep.Health.Unknowns, len(x)-len(labeled))
	}
	if got := expvarInt(t, "graphssl.fallbacks_total"); got != before+1 {
		t.Fatalf("fallbacks_total %d -> %d, want +1", before, got)
	}

	// Determinism: the fallback decision is a pure function of the input.
	var rep2 Report
	res2, err := Fit(x, y, labeled,
		WithAutoCutoff(1), WithMaxIter(1), WithTolerance(1e-14),
		WithPreconditioner(PrecondJacobi), WithDiagnostics(&rep2))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Solver != res.Solver || len(rep2.Fallbacks) != len(rep.Fallbacks) {
		t.Fatal("fallback decision not reproducible")
	}
	for i := range res.Scores {
		if res.Scores[i] != res2.Scores[i] {
			t.Fatalf("fallback scores differ at %d across reruns", i)
		}
	}
}

func TestFitCountersMove(t *testing.T) {
	x, y, labeled := robustTestData(7, 40, 10)
	fits := expvarInt(t, "graphssl.fits_total")
	errsBefore := expvarInt(t, "graphssl.fit_errors_total")
	if _, err := Fit(x, y, labeled); err != nil {
		t.Fatal(err)
	}
	if got := expvarInt(t, "graphssl.fits_total"); got != fits+1 {
		t.Fatalf("fits_total %d -> %d, want +1", fits, got)
	}
	if _, err := Fit(x, y, labeled, WithBandwidth(-1)); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	if got := expvarInt(t, "graphssl.fit_errors_total"); got != errsBefore+1 {
		t.Fatalf("fit_errors_total %d -> %d, want +1", errsBefore, got)
	}
}

func TestReportCapturesErrors(t *testing.T) {
	x, y, labeled := robustTestData(8, 30, 8)
	var rep Report
	_, err := Fit(x, y, labeled, WithBandwidth(-1), WithDiagnostics(&rep))
	if err == nil {
		t.Fatal("expected error")
	}
	if rep.Err == "" {
		t.Fatal("report did not capture the fit error")
	}
}

// robustBlob draws n points around (center, center) with the given spread.
func robustBlob(rng *rand.Rand, n int, center, spread float64) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		x[i] = []float64{center + spread*rng.NormFloat64(), center + spread*rng.NormFloat64()}
	}
	return x
}

// robustCase is one pathological Fit input with the contract its outcome
// must meet.
type robustCase struct {
	name  string
	x     [][]float64
	y     []float64
	lab   []int
	opts  []Option
	check func(res *Result, rep *Report, err error) error
}

// robustCases are the pathological inputs of TestRobustPipelineContracts.
func robustCases() []robustCase {
	rng := rand.New(rand.NewSource(42))
	base := robustBlob(rng, 120, 0, 1)
	y := make([]float64, 30)
	labeled := make([]int, 30)
	for i := range y {
		y[i] = float64(i % 2)
		labeled[i] = i
	}
	// Repeated rows give zero pairwise distances.
	dup := append([][]float64(nil), base...)
	for i := 40; i < 80; i++ {
		dup[i] = dup[i%20]
	}
	// The far blob's Gaussian weights underflow to zero, leaving its
	// unlabeled nodes unreachable from the labeled cluster.
	blobs := append(robustBlob(rng, 40, 0, 1), robustBlob(rng, 40, 1e6, 1)...)
	yb := make([]float64, 10)
	lb := make([]int, 10)
	for i := range yb {
		yb[i] = float64(i % 2)
		lb[i] = i
	}
	var ybar float64
	for _, v := range y {
		ybar += v
	}
	ybar /= float64(len(y))
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	return []robustCase{
		{"duplicate_points", dup, y, labeled, []Option{WithBandwidth(1)},
			func(_ *Result, _ *Report, err error) error { return err }},
		{"zero_bandwidth", base, y, labeled, []Option{WithBandwidth(0)},
			func(_ *Result, _ *Report, err error) error {
				if !errors.Is(err, ErrParam) {
					return fmt.Errorf("err = %v, want ErrParam", err)
				}
				return nil
			}},
		{"disconnected_blobs", blobs, yb, lb, []Option{WithBandwidth(1)},
			func(_ *Result, _ *Report, err error) error {
				if !errors.Is(err, ErrIsolated) {
					return fmt.Errorf("err = %v, want ErrIsolated", err)
				}
				return nil
			}},
		// λ→∞ drives V+λL toward the singular Laplacian; the solve must
		// still complete and collapse toward the label mean.
		{"near_singular_lambda", base, y, labeled, []Option{WithBandwidth(1), WithLambda(1e9)},
			func(res *Result, _ *Report, err error) error {
				if err != nil {
					return err
				}
				for i, s := range res.Scores {
					if math.Abs(s-ybar) > 0.5 {
						return fmt.Errorf("score %d = %v, more than 0.5 from ȳ = %v", i, s, ybar)
					}
				}
				return nil
			}},
		// Jacobi keeps the one-iteration CG budget insufficient, so the auto
		// chain must finish on the dense fallback and record it.
		{"stagnating_cg", base, y, labeled, []Option{WithBandwidth(1), WithAutoCutoff(1),
			WithMaxIter(1), WithTolerance(1e-14), WithPreconditioner(PrecondJacobi)},
			func(res *Result, rep *Report, err error) error {
				if err != nil {
					return err
				}
				if res.Solver != SolverCholesky || len(rep.Fallbacks) != 1 {
					return fmt.Errorf("solver %v with fallbacks %+v, want cholesky after one fallback", res.Solver, rep.Fallbacks)
				}
				return nil
			}},
		{"canceled_context", base, y, labeled, []Option{WithBandwidth(1), WithContext(canceled)},
			func(_ *Result, rep *Report, err error) error {
				if !errors.Is(err, context.Canceled) || len(rep.Fallbacks) != 0 {
					return fmt.Errorf("err = %v with fallbacks %+v, want context.Canceled and none", err, rep.Fallbacks)
				}
				return nil
			}},
	}
}

// TestRobustPipelineContracts drives Fit through pathological inputs and
// checks each documented contract: a clean result, a typed error, or a
// recorded fallback. Every case runs twice, and the rerun must reproduce the
// outcome, solver, fallback count and scores bit for bit.
func TestRobustPipelineContracts(t *testing.T) {
	for _, tc := range robustCases() {
		t.Run(tc.name, func(t *testing.T) {
			var rep, rep2 Report
			res, err := Fit(tc.x, tc.y, tc.lab, append([]Option{WithDiagnostics(&rep)}, tc.opts...)...)
			if cerr := tc.check(res, &rep, err); cerr != nil {
				t.Fatal(cerr)
			}
			res2, err2 := Fit(tc.x, tc.y, tc.lab, append([]Option{WithDiagnostics(&rep2)}, tc.opts...)...)
			if fmt.Sprint(err) != fmt.Sprint(err2) || rep.Solver != rep2.Solver || len(rep.Fallbacks) != len(rep2.Fallbacks) {
				t.Fatalf("rerun differs: err %v / %v, solver %v / %v, fallbacks %d / %d",
					err, err2, rep.Solver, rep2.Solver, len(rep.Fallbacks), len(rep2.Fallbacks))
			}
			if res != nil {
				for i := range res.Scores {
					if res.Scores[i] != res2.Scores[i] {
						t.Fatalf("rerun score %d = %v, want %v", i, res2.Scores[i], res.Scores[i])
					}
				}
			}
		})
	}
}
