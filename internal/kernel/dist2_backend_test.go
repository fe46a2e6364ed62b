//go:build amd64

package kernel

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// TestDist2RowsBackends pins the scalar-fallback contract the serving hot
// path relies on: Dist2Rows (the multi-row AVX kernel) and the pure-Go
// four-lane path produce bitwise-identical squared distances for every row
// count and dimension, including the ragged tails that exercise the
// 8-row, 4-row, and scalar remainders. On hosts without AVX both runs take
// the scalar path and the test degenerates to a self-comparison, which is
// exactly the contract (there is only one backend there).
func TestDist2RowsBackends(t *testing.T) {
	avx := useAVX
	defer func() { useAVX = avx }()

	rng := randx.New(613)
	for _, d := range []int{1, 3, 4, 5, 8, 11, 16, 33, 64} {
		for _, rowsN := range []int{1, 4, 7, 8, 9, 16, 23} {
			q := make([]float64, d)
			for j := range q {
				q[j] = rng.Norm()
			}
			rows := make([][]float64, rowsN)
			for i := range rows {
				rows[i] = make([]float64, d)
				for j := range rows[i] {
					v := rng.Norm()
					if rng.Float64() < 0.25 {
						v = math.Round(v) // exact ties and zero differences
					}
					rows[i][j] = v
				}
			}

			useAVX = avx
			vec := make([]float64, rowsN)
			Dist2Rows(q, rows, vec)

			useAVX = false
			scalar := make([]float64, rowsN)
			Dist2Rows(q, rows, scalar)

			for i := range rows {
				if math.Float64bits(vec[i]) != math.Float64bits(scalar[i]) {
					t.Fatalf("d=%d rows=%d row %d: avx %v != scalar %v", d, rowsN, i, vec[i], scalar[i])
				}
				if want := Dist2(q, rows[i]); math.Float64bits(vec[i]) != math.Float64bits(want) {
					t.Fatalf("d=%d rows=%d row %d: Dist2Rows %v != Dist2 %v", d, rowsN, i, vec[i], want)
				}
			}
		}
	}
}

// TestDist2BlockBackends pins the block kernel to Dist2 bit for bit, on the
// AVX and the pure-Go path, for d = 1…20 (no four-lane body below d = 4,
// then every tail length) and 1…16 live points per block. The padding slots
// hold NaN and a huge value: one that reached a caller would show as a
// wrong value or a returned slice longer than the live points.
func TestDist2BlockBackends(t *testing.T) {
	avx := useAVX
	defer func() { useAVX = avx }()

	rng := randx.New(617)
	for d := 1; d <= 20; d++ {
		for n := 1; n <= 16; n++ {
			q := make([]float64, d)
			for j := range q {
				q[j] = rng.Norm()
			}
			pts := make([][]float64, n)
			w := BlockStride(n)
			blk := make([]float64, d*w)
			for j := 0; j < d; j++ {
				for s := n; s < w; s++ {
					blk[j*w+s] = math.NaN()
					if s%2 == 0 {
						blk[j*w+s] = 1e300
					}
				}
			}
			for s := range pts {
				pts[s] = make([]float64, d)
				for j := range pts[s] {
					v := rng.Norm()
					if rng.Float64() < 0.25 {
						v = math.Round(v) // exact ties and zero differences
					}
					pts[s][j] = v
					blk[j*w+s] = v
				}
			}
			for _, on := range []bool{avx, false} {
				useAVX = on
				out := make([]float64, w)
				got := Dist2Block(q, blk, n, out)
				if len(got) != n {
					t.Fatalf("d=%d n=%d avx=%v: %d distances returned", d, n, on, len(got))
				}
				for s, p := range pts {
					if want := Dist2(q, p); math.Float64bits(got[s]) != math.Float64bits(want) {
						t.Fatalf("d=%d n=%d avx=%v point %d: Dist2Block %v != Dist2 %v", d, n, on, s, got[s], want)
					}
				}
			}
		}
	}
}
