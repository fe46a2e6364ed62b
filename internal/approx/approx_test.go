package approx

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/spatial"
)

// testProblem builds an n-point planar problem with every step-th point
// labeled by a smooth response, the standard large-n fixture (the root
// package's certificate test fits the same layout at n = 10k and 40k).
func testProblem(t *testing.T, n, step int, k *kernel.K, knn int, seed int64) (*core.Problem, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
	}
	b, err := graph.NewBuilder(k, graph.WithKNN(knn))
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	var labeled []int
	var y []float64
	for i := 0; i < n; i += step {
		labeled = append(labeled, i)
		y = append(y, math.Sin(4*x[i][0])*math.Cos(3*x[i][1]))
	}
	p, err := core.NewProblem(g, labeled, y)
	if err != nil {
		t.Fatal(err)
	}
	return p, x
}

// TestBoundIsTrueUpperBound: across kernels, the certificate must dominate
// the measured sup-norm error against the exact solution of the same
// problem — the contract that makes the exact-fallback logic sound.
func TestBoundIsTrueUpperBound(t *testing.T) {
	cases := []struct {
		name string
		kind kernel.Kind
		h    float64
	}{
		{"gaussian", kernel.Gaussian, 0.12},
		{"epanechnikov", kernel.Epanechnikov, 0.35},
		{"triangular", kernel.Triangular, 0.35},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, err := kernel.New(tc.kind, tc.h)
			if err != nil {
				t.Fatal(err)
			}
			p, x := testProblem(t, 2000, 40, k, 10, 7)
			res, err := SolveHard(p, x, Options{Kernel: k, Anchors: 300, Workers: 2})
			if err != nil {
				t.Fatalf("approx: %v", err)
			}
			if math.IsInf(res.Bound, 1) {
				t.Fatal("no certificate on a healthy covered problem")
			}
			exact, err := core.SolveHard(p)
			if err != nil {
				t.Fatal(err)
			}
			var actual float64
			for i, f := range res.FUnlabeled {
				if d := math.Abs(f - exact.FUnlabeled[i]); d > actual {
					actual = d
				}
			}
			if res.Bound < actual {
				t.Fatalf("bound %g < actual sup error %g", res.Bound, actual)
			}
			// The certificate must also be informative, not a vacuous
			// constant: demand it stay within a moderate factor of scale.
			if res.Bound > 50 {
				t.Fatalf("bound %g is vacuous for unit-scale responses (actual %g)", res.Bound, actual)
			}
			t.Logf("n=2000 anchors=%d bound=%.4g actual=%.4g levels=%d reduced=%v/%d barrier=%d",
				res.Anchors, res.Bound, actual, res.Levels, res.ReducedMethod, res.ReducedIterations, res.BarrierIterations)
		})
	}
}

// TestApproxDeterministicAcrossWorkers: scores, bound, and diagnostics are
// bitwise-identical for every worker count.
func TestApproxDeterministicAcrossWorkers(t *testing.T) {
	k, err := kernel.New(kernel.Gaussian, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	p, x := testProblem(t, 1500, 30, k, 8, 11)
	var ref *Result
	for _, workers := range []int{1, 2, 5} {
		res, err := SolveHard(p, x, Options{Kernel: k, Anchors: 250, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Bound != ref.Bound || res.Anchors != ref.Anchors || res.Levels != ref.Levels {
			t.Fatalf("workers=%d: diagnostics differ: %+v vs %+v", workers, res, ref)
		}
		for i := range res.FUnlabeled {
			if res.FUnlabeled[i] != ref.FUnlabeled[i] {
				t.Fatalf("workers=%d: score %d differs", workers, i)
			}
		}
	}
}

// TestApproxRefusesSmallSystems: below the pay-off size and when the anchor
// budget defeats the purpose, the solver must signal ErrTooSmall so the
// caller runs the exact path.
func TestApproxRefusesSmallSystems(t *testing.T) {
	k, err := kernel.New(kernel.Gaussian, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	p, x := testProblem(t, 600, 20, k, 8, 3)
	if _, err := SolveHard(p, x, Options{Kernel: k}); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("n=600: err = %v, want ErrTooSmall", err)
	}
	p2, x2 := testProblem(t, 1500, 30, k, 8, 3)
	if _, err := SolveHard(p2, x2, Options{Kernel: k, Anchors: 1200}); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("anchors≈n: err = %v, want ErrTooSmall", err)
	}
	if _, err := SolveHard(nil, nil, Options{Kernel: k}); !errors.Is(err, ErrParam) {
		t.Fatalf("nil problem: err = %v, want ErrParam", err)
	}
}

// TestHierarchyNestsAndRenumbersDensely: every level maps onto dense,
// first-appearance-ordered aggregate ids, and level sizes strictly shrink.
func TestHierarchyNestsAndRenumbersDensely(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([][]float64, 4000)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	tree, err := spatial.NewKDTree(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	unlabeled := make([]int, 0, len(x))
	for i := range x {
		if i%7 != 0 { // arbitrary labeled subset carved out
			unlabeled = append(unlabeled, i)
		}
	}
	h := buildHierarchy(tree, unlabeled)
	if len(h.assign) == 0 {
		t.Fatal("no hierarchy levels for 3428 unlabeled points")
	}
	units := len(unlabeled)
	for l, asg := range h.assign {
		if len(asg) != units {
			t.Fatalf("level %d: %d entries for %d units", l, len(asg), units)
		}
		seen := int32(0)
		for _, a := range asg {
			if a < 0 || a > seen {
				t.Fatalf("level %d: id %d breaks dense first-appearance order (seen %d)", l, a, seen)
			}
			if a == seen {
				seen++
			}
		}
		if int(seen) >= units {
			t.Fatalf("level %d: no reduction (%d -> %d)", l, units, seen)
		}
		units = int(seen)
	}
	if units > coarsestMax*coarsenFactor*2 {
		t.Fatalf("coarsest level still has %d aggregates", units)
	}
}

// TestZeroAllocBoundWarm: re-certifying updated scores on a warm Bounder —
// the serve-refit hot path — must not allocate.
func TestZeroAllocBoundWarm(t *testing.T) {
	k, err := kernel.New(kernel.Gaussian, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := testProblem(t, 1200, 24, k, 8, 9)
	sys, err := assembleSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	bd := newBounder(sys, nil, 1)
	f := make([]float64, sys.a.Rows())
	for i := range f {
		f[i] = float64(i%3) * 0.25
	}
	if b := bd.Bound(f); math.IsInf(b, 1) {
		t.Fatal("warm bound not certifiable")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if bd.Bound(f) < 0 {
			t.Fail()
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Bound allocates %v times", allocs)
	}
}

// TestAssembleSystemMatchesPropagationSystem: the COO-free assembly must
// reproduce core.BuildPropagationSystem's A = D − W22 and b exactly.
func TestAssembleSystemMatchesPropagationSystem(t *testing.T) {
	k, err := kernel.New(kernel.Epanechnikov, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := testProblem(t, 1100, 11, k, 9, 13)
	sys, err := assembleSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.BuildPropagationSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	if sys.a.Rows() != ref.M() {
		t.Fatalf("rows %d vs %d", sys.a.Rows(), ref.M())
	}
	for kk := range sys.b {
		if sys.b[kk] != ref.B[kk] {
			t.Fatalf("b[%d] = %v, want %v", kk, sys.b[kk], ref.B[kk])
		}
	}
	// A row check: A = D − W22 entrywise.
	for i := 0; i < sys.a.Rows(); i++ {
		cols, vals := sys.a.RowNNZ(i)
		for c, j := range cols {
			want := -ref.W.At(i, j)
			if j == i {
				want += ref.D[i]
			}
			if vals[c] != want {
				t.Fatalf("A[%d,%d] = %v, want %v", i, j, vals[c], want)
			}
		}
	}
}
