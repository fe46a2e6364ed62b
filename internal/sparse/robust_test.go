package sparse

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// countdownCtx is a context whose Err flips to context.Canceled after its
// Err method has been consulted `fuse` times. It cancels a solver
// deterministically "mid-solve" without any timing dependence.
type countdownCtx struct {
	fuse int64
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if atomic.AddInt64(&c.fuse, -1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestCGCanceledBeforeStart(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randSPDCSR(rng, 40)
	b := randVec(rng, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, res, err := CG(a, b, CGOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Iterations != 0 {
		t.Fatalf("ran %d iterations after cancellation", res.Iterations)
	}
}

func TestIterativeSolversCancelMidSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randSPDCSR(rng, 60)
	b := randVec(rng, 60)

	cases := []struct {
		name  string
		solve func(ctx context.Context) (SolveResult, error)
	}{
		{"cg", func(ctx context.Context) (SolveResult, error) {
			_, r, err := CG(a, b, CGOptions{Ctx: ctx, Tol: 1e-14})
			return r, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The fuse admits a handful of per-iteration checks, then trips:
			// the solver must notice within the very next sweep.
			res, err := tc.solve(&countdownCtx{fuse: 3})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res.Iterations > 4 {
				t.Fatalf("solver ran %d iterations past a fuse of 3 checks", res.Iterations)
			}
		})
	}
}

func TestCGDivergenceDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randSPDCSR(rng, 10)
	b := randVec(rng, 10)
	b[3] = math.NaN()
	_, _, err := CG(a, b, CGOptions{StagnationWindow: 5})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged on NaN rhs", err)
	}
}

// TestCGStagnationDetection feeds CG a singular PSD system whose rhs has a
// null-space component: the residual can never fall below that component's
// norm, so the history window must trip instead of spinning to MaxIter.
func TestCGStagnationDetection(t *testing.T) {
	// Edge Laplacian [[1,-1],[-1,1]] padded with well-behaved rows so pap
	// stays positive for the first search directions.
	coo := NewCOO(4, 4)
	_ = coo.AddSym(0, 1, -1)
	_ = coo.Add(0, 0, 1)
	_ = coo.Add(1, 1, 1)
	_ = coo.Add(2, 2, 2)
	_ = coo.Add(3, 3, 3)
	a := coo.ToCSR()
	// b = range component + null component ([1,1] direction is null).
	b := []float64{2, 0, 1, 1}
	_, res, err := CG(a, b, CGOptions{Tol: 1e-13, MaxIter: 10000, StagnationWindow: 10})
	if !errors.Is(err, ErrStagnated) && !errors.Is(err, ErrDiverged) && !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want a detection error", err)
	}
	if errors.Is(err, ErrStagnated) && res.Iterations >= 10000 {
		t.Fatalf("stagnation flagged only at MaxIter (%d iterations)", res.Iterations)
	}
	if res.Iterations >= 10000 {
		t.Fatalf("solver spun to MaxIter (%d) instead of detecting failure", res.Iterations)
	}
}

// TestCGStagnationDetectionPassiveOnHealthyRuns verifies detection never
// perturbs a converging solve: iterates with and without the window are
// bitwise identical.
func TestCGStagnationDetectionPassiveOnHealthyRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randSPDCSR(rng, 50)
	b := randVec(rng, 50)
	x1, r1, err1 := CG(a, b, CGOptions{})
	x2, r2, err2 := CG(a, b, CGOptions{StagnationWindow: 25})
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v / %v", err1, err2)
	}
	if r1.Iterations != r2.Iterations || r1.Residual != r2.Residual {
		t.Fatalf("results differ: %+v vs %+v", r1, r2)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("iterate differs at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}
