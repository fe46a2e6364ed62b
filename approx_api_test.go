package graphssl

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// approxFixture builds the planar large-n fixture: n points in the unit
// square with every step-th labeled by a smooth response.
func approxFixture(n, step int, seed int64) (x [][]float64, y []float64, labeled []int) {
	rng := rand.New(rand.NewSource(seed))
	x = make([][]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
	}
	for i := 0; i < n; i += step {
		labeled = append(labeled, i)
		y = append(y, math.Sin(4*x[i][0])*math.Cos(3*x[i][1]))
	}
	return x, y, labeled
}

// TestWithApproxAcceptsWithinTolerance: a generous tolerance keeps the
// Nyström answer, whose certified bound must dominate the measured distance
// to the exact fit of the same data.
func TestWithApproxAcceptsWithinTolerance(t *testing.T) {
	x, y, labeled := approxFixture(2000, 40, 7)
	base := []Option{WithBandwidth(0.12), WithKNN(10)}
	exact, err := Fit(x, y, labeled, base...)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	res, err := Fit(x, y, labeled, append([]Option{WithApprox(50), WithDiagnostics(&rep)}, base...)...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != SolverNystrom {
		t.Fatalf("solver = %v, want nystrom", res.Solver)
	}
	if !(res.ApproxBound > 0 && res.ApproxBound <= 50) {
		t.Fatalf("ApproxBound = %v, want in (0, 50]", res.ApproxBound)
	}
	if res.ApproxAnchors <= len(labeled) || res.ApproxAnchors >= len(x)/2 {
		t.Fatalf("ApproxAnchors = %d for n=%d, nl=%d", res.ApproxAnchors, len(x), len(labeled))
	}
	if res.Residual != res.ApproxBound {
		t.Fatalf("Residual %v must carry the bound %v for Nyström fits", res.Residual, res.ApproxBound)
	}
	var actual float64
	for i := range res.Scores {
		if d := math.Abs(res.Scores[i] - exact.Scores[i]); d > actual {
			actual = d
		}
	}
	if actual > res.ApproxBound {
		t.Fatalf("measured sup error %g exceeds certified bound %g", actual, res.ApproxBound)
	}
	if rep.Approx == nil || !rep.Approx.Accepted || rep.Approx.Bound != res.ApproxBound {
		t.Fatalf("report.Approx = %+v, want accepted with bound %v", rep.Approx, res.ApproxBound)
	}
	if len(rep.Fallbacks) != 0 {
		t.Fatalf("accepted approx fit recorded fallbacks: %+v", rep.Fallbacks)
	}
	// Labeled points keep their observed responses exactly.
	for i, l := range res.Labeled {
		if res.Scores[l] != y[i] {
			t.Fatalf("labeled score %d = %v, want %v", l, res.Scores[l], y[i])
		}
	}
}

// TestWithApproxFallsBackOnTightTolerance: a bound above tol must yield the
// exact answer bit for bit, with the rejection documented.
func TestWithApproxFallsBackOnTightTolerance(t *testing.T) {
	x, y, labeled := approxFixture(2000, 40, 7)
	base := []Option{WithBandwidth(0.12), WithKNN(10)}
	exact, err := Fit(x, y, labeled, base...)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	res, err := Fit(x, y, labeled, append([]Option{WithApprox(1e-9), WithDiagnostics(&rep)}, base...)...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver == SolverNystrom {
		t.Fatal("tight tolerance must reject the approximate answer")
	}
	if res.ApproxBound != 0 || res.ApproxAnchors != 0 {
		t.Fatalf("rejected approx fit leaked bound fields: %+v", res)
	}
	for i := range res.Scores {
		if res.Scores[i] != exact.Scores[i] {
			t.Fatalf("score %d differs from the exact path after fallback", i)
		}
	}
	if rep.Approx == nil || rep.Approx.Accepted {
		t.Fatalf("report.Approx = %+v, want a rejected attempt", rep.Approx)
	}
	found := false
	for _, fb := range rep.Fallbacks {
		if fb.From == SolverNystrom {
			found = true
		}
	}
	if !found {
		t.Fatalf("no Nyström fallback recorded: %+v", rep.Fallbacks)
	}
}

// TestWithApproxUnavailableFallsBack: below the engine's minimum size the
// fit silently (but documented) runs exact.
func TestWithApproxUnavailableFallsBack(t *testing.T) {
	x, y, labeled := approxFixture(300, 10, 3)
	var rep Report
	res, err := Fit(x, y, labeled, WithBandwidth(0.3), WithApprox(10), WithDiagnostics(&rep))
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver == SolverNystrom {
		t.Fatal("n=300 must not use the approximate engine")
	}
	if rep.Approx == nil || rep.Approx.Err == "" || rep.Approx.Accepted {
		t.Fatalf("report.Approx = %+v, want an unavailable attempt with Err", rep.Approx)
	}
}

// TestWithApproxZeroDisables: tol = 0 is the exact path, including no
// ApproxInfo in the report.
func TestWithApproxZeroDisables(t *testing.T) {
	x, y, labeled := approxFixture(1200, 24, 5)
	base := []Option{WithBandwidth(0.15), WithKNN(8)}
	ref, err := Fit(x, y, labeled, base...)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	res, err := Fit(x, y, labeled, append([]Option{WithApprox(0), WithDiagnostics(&rep)}, base...)...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Approx != nil {
		t.Fatalf("WithApprox(0) still attempted the engine: %+v", rep.Approx)
	}
	for i := range res.Scores {
		if res.Scores[i] != ref.Scores[i] {
			t.Fatalf("score %d differs under WithApprox(0)", i)
		}
	}
}

// TestWithApproxValidation: malformed or contradictory approx options fail
// fast with ErrParam.
func TestWithApproxValidation(t *testing.T) {
	x, y, labeled := approxFixture(200, 10, 1)
	cases := map[string][]Option{
		"negative tol":    {WithApprox(-1)},
		"nan tol":         {WithApprox(math.NaN())},
		"inf tol":         {WithApprox(math.Inf(1))},
		"negative budget": {WithApproxAnchors(-5), WithApprox(1)},
		"soft criterion":  {WithApprox(1), WithLambda(0.5)},
		"cluster shards":  {WithApprox(1), WithClusterShards(2)},
	}
	for name, opts := range cases {
		if _, err := Fit(x, y, labeled, opts...); !errors.Is(err, ErrParam) {
			t.Errorf("%s: err = %v, want ErrParam", name, err)
		}
	}
}

// TestApproxSnapshotCarriesBound: the certificate survives the freeze into
// a served ModelSnapshot.
func TestApproxSnapshotCarriesBound(t *testing.T) {
	x, y, labeled := approxFixture(2000, 40, 9)
	res, err := Fit(x, y, labeled, WithBandwidth(0.12), WithKNN(10), WithApprox(50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != SolverNystrom {
		t.Skipf("approximate answer rejected (bound %v); nothing to snapshot", res.ApproxBound)
	}
	snap, err := res.Snapshot(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ApproxBound != res.ApproxBound {
		t.Fatalf("snapshot bound %v, want %v", snap.ApproxBound, res.ApproxBound)
	}
}

// TestApproxCertificateDominatesLargeN is the end-to-end soundness check of
// the Nyström certificate at sizes where the exact fit still runs: n = 10k
// and 40k uniform points in the unit square, one label per 200 points, the
// Epanechnikov kernel at h = 0.05 on an 8-NN graph. The WithApprox(1e18) fit
// must keep the Nyström answer, and its certified sup-norm bound must
// dominate the measured distance to the exact fit.
func TestApproxCertificateDominatesLargeN(t *testing.T) {
	for _, n := range []int{10000, 40000} {
		x, y, labeled := approxFixture(n, 200, 1031)
		base := []Option{WithKernel(Epanechnikov), WithBandwidth(0.05), WithKNN(8)}
		exact, err := Fit(x, y, labeled, base...)
		if err != nil {
			t.Fatalf("n=%d exact fit: %v", n, err)
		}
		var rep Report
		approx, err := Fit(x, y, labeled, append([]Option{WithApprox(1e18), WithDiagnostics(&rep)}, base...)...)
		if err != nil {
			t.Fatalf("n=%d approx fit: %v", n, err)
		}
		if approx.Solver != SolverNystrom {
			t.Fatalf("n=%d: solver %v, want nystrom (report %+v)", n, approx.Solver, rep.Approx)
		}
		var actual float64
		for i := range approx.Scores {
			actual = math.Max(actual, math.Abs(approx.Scores[i]-exact.Scores[i]))
		}
		t.Logf("n=%d anchors=%d bound=%.4g actual=%.4g", n, approx.ApproxAnchors, approx.ApproxBound, actual)
		if !(approx.ApproxBound >= actual) {
			t.Fatalf("n=%d: certified bound %g below measured error %g", n, approx.ApproxBound, actual)
		}
	}
}
