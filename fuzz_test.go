package graphssl

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernel"
)

// FuzzFit drives the full fit pipeline with arbitrary bytes decoded into
// points, responses, label indices, and tuning parameters. The contract under
// test: Fit never panics, and it returns either a finite-shaped result or an
// error carrying one of the package's typed sentinels (ErrParam,
// ErrIsolated). Each input is fitted twice, with the default solver and with
// an explicit SolverCholesky: at these sizes (at most 24 points) the auto
// plan is Cholesky alone, so both fail with the same sentinel or return
// bitwise-equal scores. A hard-criterion input (λ = 0) also goes through
// HardSnapshot, which must fail as Fit fails or freeze Fit's snapshot
// (checkHardSnapshot), and one that Fit accepts is refitted through
// FitGraph on the CSR of the same graph (checkFitGraph). Run the full
// campaign with `make fuzz`.
func FuzzFit(f *testing.F) {
	// Seed corpus: a healthy fit, degenerate shapes, duplicate points,
	// pathological parameter values.
	f.Add([]byte{}, uint8(3), uint8(2), uint8(2), int64(1), 1.0, 0.0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(6), uint8(2), uint8(3), int64(7), 0.5, 0.1)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(5), uint8(1), uint8(4), int64(3), -1.0, -0.5)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(4), uint8(3), uint8(1), int64(9), 0.0, 1e12)
	f.Add([]byte{7, 7, 7, 7}, uint8(2), uint8(2), uint8(1), int64(11), math.NaN(), math.Inf(1))

	f.Fuzz(func(t *testing.T, raw []byte, nPts, dim, nLab uint8, seed int64, bandwidth, lambda float64) {
		n := int(nPts%24) + 1
		d := int(dim%6) + 1
		nl := int(nLab) % (n + 1)

		// Decode coordinates from the raw bytes, cycling; inject the
		// occasional extreme value so the validation paths get exercised.
		x := make([][]float64, n)
		pos := 0
		nextF64 := func() float64 {
			if len(raw) == 0 {
				return float64(pos%5) - 2
			}
			var buf [8]byte
			for i := range buf {
				buf[i] = raw[(pos+i)%len(raw)]
			}
			pos += 8
			u := binary.LittleEndian.Uint64(buf[:])
			switch u % 13 {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return 1e300
			default:
				return float64(int64(u%2000)-1000) / 100
			}
		}
		for i := range x {
			x[i] = make([]float64, d)
			for j := range x[i] {
				x[i][j] = nextF64()
			}
		}
		y := make([]float64, nl)
		labeled := make([]int, nl)
		for i := range y {
			y[i] = nextF64()
			// Mostly valid indices, sometimes out of range or duplicated.
			labeled[i] = int(seed+int64(i)) % (n + 2)
			if labeled[i] < 0 {
				labeled[i] = -labeled[i]
			}
		}

		opts := []Option{WithLambda(lambda)}
		if bandwidth != 0 {
			opts = append(opts, WithBandwidth(bandwidth))
		}
		res, err := Fit(x, y, labeled, opts...)
		if lambda == 0 {
			checkHardSnapshot(t, x, y, labeled, opts, res, err)
		}
		chol, cholErr := Fit(x, y, labeled, append(opts, WithSolver(SolverCholesky))...)
		if err != nil {
			if !errors.Is(err, ErrParam) && !errors.Is(err, ErrIsolated) {
				t.Fatalf("untyped error: %v", err)
			}
			if cholErr == nil || errors.Is(cholErr, ErrParam) != errors.Is(err, ErrParam) ||
				errors.Is(cholErr, ErrIsolated) != errors.Is(err, ErrIsolated) {
				t.Fatalf("default fit failed with %v, explicit Cholesky with %v", err, cholErr)
			}
			return
		}
		if cholErr != nil {
			t.Fatalf("default fit succeeded, explicit Cholesky failed: %v", cholErr)
		}
		if res == nil {
			t.Fatal("nil result with nil error")
		}
		if len(res.Scores) != n {
			t.Fatalf("got %d scores for %d points", len(res.Scores), n)
		}
		if len(res.Unlabeled) != len(res.UnlabeledScores) {
			t.Fatalf("unlabeled index/score length mismatch: %d vs %d",
				len(res.Unlabeled), len(res.UnlabeledScores))
		}
		for i, s := range res.Scores {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatalf("non-finite score %v at %d from validated inputs", s, i)
			}
			if math.Float64bits(s) != math.Float64bits(chol.Scores[i]) {
				t.Fatalf("score %d: default %v, explicit Cholesky %v", i, s, chol.Scores[i])
			}
		}
		if lambda == 0 {
			checkFitGraph(t, x, y, labeled, res)
		}
	})
}

// checkFitGraph refits a hard-criterion fit that Fit accepted through
// FitGraph, on the CSR of the same graph: the Weights of a Build with the
// fit's kernel and resolved bandwidth. Fit writes its dense system from the
// complete graph's matrix, FitGraph from CSR rows; both must give the same
// score bits and the same GraphStats.
func checkFitGraph(t *testing.T, x [][]float64, y []float64, labeled []int, res *Result) {
	t.Helper()
	k, err := kernel.New(res.Kernel, res.Bandwidth)
	if err != nil {
		t.Fatal(err)
	}
	b, err := graph.NewBuilder(k)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	viaCSR, err := FitGraph(g.Weights(), y, labeled)
	if err != nil {
		t.Fatalf("Fit succeeded, FitGraph on its graph's CSR failed: %v", err)
	}
	if viaCSR.GraphStats != res.GraphStats {
		t.Fatalf("GraphStats: Fit %+v, FitGraph %+v", res.GraphStats, viaCSR.GraphStats)
	}
	for i, s := range res.Scores {
		if math.Float64bits(s) != math.Float64bits(viaCSR.Scores[i]) {
			t.Fatalf("score %d: Fit %v, FitGraph %v", i, s, viaCSR.Scores[i])
		}
	}
}
