package core

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/sparse"
)

// FuzzProbeHealth decodes bytes into a symmetric matrix of at most 12×12
// with small signed integer entries and checks the probe against the dense
// eigensolver:
//
//	data[0]    size, 1 + data[0]%12
//	data[1:]   the upper triangle row by row, diagonal included, one entry
//	           per byte as int8 % 5; missing bytes are zero
//
// The probe must never panic. Zero and negative diagonals must be flagged,
// with ρ and the condition proxy +Inf. Otherwise ρ must not exceed the
// dense ρ(I − D^(−1/2) A D^(−1/2)) by more than 1e-12·max(1, ρ) and must
// match it within 1e-9.
func FuzzProbeHealth(f *testing.F) {
	f.Add([]byte{0, 3})
	f.Add([]byte{1, 0, 1, 2})                               // zero diagonal
	f.Add([]byte{1, 0xfc, 1, 2})                            // negative diagonal
	f.Add([]byte{1, 2, 4, 2})                               // indefinite: ρ = 2
	f.Add([]byte{2, 4, 1, 0, 4, 1, 4})                      // path, diagonally dominant
	f.Add([]byte{3, 4, 0xff, 0, 0, 4, 0xff, 0, 4, 0xff, 4}) // two blocks
	// A 3×3 whose plain Lanczos misses its invariant subspace by rounding
	// and runs all 50 steps: T holds clusters of ghost Ritz values.
	f.Add([]byte("2181018"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%12)
		data = data[1:]
		dense := mat.NewDense(n, n)
		coo := sparse.NewCOO(n, n)
		zero, neg := false, false
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				var v float64
				if len(data) > 0 {
					v, data = float64(int8(data[0])%5), data[1:]
				}
				if i == j {
					zero, neg = zero || v == 0, neg || v < 0
				}
				if v == 0 {
					continue
				}
				dense.Set(i, j, v)
				dense.Set(j, i, v)
				if i == j {
					_ = coo.Add(i, i, v)
				} else {
					_ = coo.AddSym(i, j, v)
				}
			}
		}
		h, err := ProbeHealth(coo.ToCSR())
		if err != nil {
			t.Fatal(err)
		}
		flagged := math.IsInf(h.JacobiSpectralRadius, 1) && math.IsInf(h.ConditionProxy, 1)
		switch {
		case zero:
			if !h.ZeroDiagonal || !flagged || len(h.Warnings) == 0 {
				t.Fatalf("zero diagonal not flagged: %+v", h)
			}
		case neg:
			if h.ZeroDiagonal || !flagged || len(h.Warnings) == 0 {
				t.Fatalf("negative diagonal not flagged: %+v", h)
			}
		default:
			checkProbeRadius(t, "fuzz", h.JacobiSpectralRadius, denseJacobiRadius(t, dense))
		}
	})
}
