package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// choleskyRef is the column loop NewCholesky ran before it factored in
// panels, kept as the reference the panel path must match bit for bit:
// each entry is one Dot over every earlier column. Its pivot test rejects
// any pivot that is not a finite positive number, as NewCholesky's does.
func choleskyRef(a *Dense) (*Cholesky, error) {
	if !a.IsSquare() {
		return nil, ErrSquare
	}
	n := a.rows
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		// Diagonal entry.
		d := a.data[j*n+j]
		lrow := l.data[j*n : j*n+j]
		d -= Dot(lrow, lrow)
		if d <= 0 || math.IsNaN(d) || math.IsInf(d, 1) {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.data[j*n+j] = ljj
		// Column below the diagonal.
		for i := j + 1; i < n; i++ {
			s := a.data[i*n+j]
			s -= Dot(l.data[i*n:i*n+j], lrow)
			l.data[i*n+j] = s / ljj
		}
	}
	return &Cholesky{l: l}, nil
}

// diagDominantSym returns a random symmetric matrix whose diagonal exceeds
// its row's absolute off-diagonal sum by 1, so it is positive definite.
func diagDominantSym(rng *rand.Rand, n int) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := rng.NormFloat64()
			a.data[i*n+j], a.data[j*n+i] = v, v
		}
	}
	for i := 0; i < n; i++ {
		a.data[i*n+i] = Norm1(a.data[i*n:i*n+n]) + 1
	}
	return a
}

// hardSystem assembles D22 − W22 for a Gaussian graph on n unlabeled and
// n/8+1 labeled points in the unit square, as the hard criterion's
// buildHardSystem does: the diagonal holds each unlabeled point's full
// degree, off-diagonals the negated weights between unlabeled points. With
// the labeled points moved out to distance far, their weights all but
// vanish and the system is near singular.
func hardSystem(rng *rand.Rand, n int, far float64) *Dense {
	nl := n/8 + 1
	pts := make([][2]float64, n+nl)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64(), rng.Float64()}
		if i >= n {
			pts[i][0] += far
		}
	}
	const h = 0.2
	w := func(i, j int) float64 {
		dx, dy := pts[i][0]-pts[j][0], pts[i][1]-pts[j][1]
		return math.Exp(-(dx*dx + dy*dy) / (2 * h * h))
	}
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		var deg float64
		for j := range pts {
			if j == i {
				continue
			}
			v := w(i, j)
			deg += v
			if j < n {
				a.data[i*n+j] = -v
			}
		}
		a.data[i*n+i] = deg
	}
	return a
}

// tiesSym returns a positive definite matrix with small-integer entries,
// most of them zero: sums of its products are exact and often tie.
func tiesSym(rng *rand.Rand, n int) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			var v float64
			if rng.Intn(3) == 0 {
				v = float64(rng.Intn(5) - 2)
			}
			a.data[i*n+j], a.data[j*n+i] = v, v
		}
	}
	for i := 0; i < n; i++ {
		a.data[i*n+i] = Norm1(a.data[i*n:i*n+n]) + float64(rng.Intn(2))
		if a.data[i*n+i] == 0 {
			a.data[i*n+i] = 1
		}
	}
	return a
}

// checkCholeskyBits fails unless NewCholesky, with each panelDots backend
// the host has, returns the same error as choleskyRef on a and, when both
// succeed, the same factor and the same solve, compared by bits.
func checkCholeskyBits(t *testing.T, what string, a *Dense) {
	t.Helper()
	want, werr := choleskyRef(a)
	n := a.rows
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	var xw []float64
	if werr == nil {
		xw, _ = want.Solve(b)
	}
	panelKernels(func(kernel string) {
		got, gerr := NewCholesky(a)
		if !errors.Is(gerr, werr) || (gerr == nil) != (werr == nil) {
			t.Fatalf("%s, %s kernel: error %v, reference %v", what, kernel, gerr, werr)
		}
		if werr != nil {
			return
		}
		for i, v := range want.l.data {
			if math.Float64bits(got.l.data[i]) != math.Float64bits(v) {
				t.Fatalf("%s, %s kernel: L[%d][%d] = %v, reference %v", what, kernel, i/n, i%n, got.l.data[i], v)
			}
		}
		xg, err := got.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xw {
			if math.Float64bits(xg[i]) != math.Float64bits(xw[i]) {
				t.Fatalf("%s, %s kernel: Solve x[%d] = %v, reference %v", what, kernel, i, xg[i], xw[i])
			}
		}
	})
}

// TestCholeskyMatchesReference holds the panel factorization to the column
// loop bit for bit, with each panelDots backend the host has. The sizes hit
// every panel tail (n mod 8) and every row-group tail (rows below a panel
// mod 4).
func TestCholeskyMatchesReference(t *testing.T) {
	var sizes []int
	for n := 0; n <= 17; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 31, 32, 33, 63, 64, 65, 257, 1350)
	rng := rand.New(rand.NewSource(19))
	for _, n := range sizes {
		mats := map[string]*Dense{
			"dominant":      diagDominantSym(rng, n),
			"hard":          hardSystem(rng, n, 0),
			"near-singular": hardSystem(rng, n, 3),
			"ties":          tiesSym(rng, n),
		}
		if n <= 65 {
			mats["gram"] = randSPD(rng, n)
		}
		for name, a := range mats {
			checkCholeskyBits(t, fmt.Sprintf("n=%d %s", n, name), a)
		}
	}
}

// TestCholeskyErrorParity puts a bad pivot at column 0, inside a diagonal
// block, at the first column after a panel and at the last column, and a
// NaN or infinite entry on or below the diagonal: NewCholesky must fail
// exactly where the column loop fails.
func TestCholeskyErrorParity(t *testing.T) {
	const n = 21
	rng := rand.New(rand.NewSource(23))
	base := diagDominantSym(rng, n)
	ref, err := choleskyRef(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{0, 5, panelWidth, 2 * panelWidth, n - 1} {
		// The column's pivot is a[j][j] − Σ L[j][k]², and that sum does
		// not depend on a[j][j]: setting a[j][j] to it makes the pivot
		// exactly zero.
		lrow := ref.l.data[j*n : j*n+j]
		cases := map[string]float64{"zero pivot": Dot(lrow, lrow), "-1": -1, "NaN": math.NaN(), "+Inf": math.Inf(1)}
		for name, v := range cases {
			a := base.Clone()
			a.data[j*n+j] = v
			checkNotPD(t, fmt.Sprintf("a[%d][%d] = %s", j, j, name), a)
		}
		if j > 0 {
			for name, v := range map[string]float64{"NaN": math.NaN(), "-Inf": math.Inf(-1)} {
				a := base.Clone()
				a.data[j*n+j/2] = v
				checkNotPD(t, fmt.Sprintf("a[%d][%d] = %s", j, j/2, name), a)
			}
		}
	}
}

// checkNotPD fails unless the column loop rejects a as not positive
// definite, and NewCholesky with it.
func checkNotPD(t *testing.T, what string, a *Dense) {
	t.Helper()
	if _, err := choleskyRef(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("%s: reference returned %v, want ErrNotPositiveDefinite", what, err)
	}
	checkCholeskyBits(t, what, a)
}

// FuzzCholesky compares NewCholesky with the column loop on symmetric
// matrices of order at most 24 built from the fuzz bytes: the same error,
// and a bitwise-equal factor when both succeed. The first byte picks the
// order, the second whether the diagonal is made dominant; every entry is
// a byte over 16, so products are exact in places and many sums tie.
func FuzzCholesky(f *testing.F) {
	seed := func(n int, dominant byte, fill func(i int) byte) []byte {
		b := []byte{byte(n - 1), dominant}
		for i := 0; i < n*n; i++ {
			b = append(b, fill(i))
		}
		return b
	}
	f.Add(seed(8, 1, func(i int) byte { return byte(i * 37) }))
	f.Add(seed(9, 1, func(i int) byte { return byte(i*11 + 3) }))
	f.Add(seed(12, 1, func(i int) byte { return byte(i * i) }))
	f.Add(seed(12, 0, func(i int) byte { return byte(i * 53) })) // not positive definite
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%24
		dominant := data[1]&1 == 1
		data = data[2:]
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				var v float64
				if k := i*n + j; k < len(data) {
					v = float64(int8(data[k])) / 16
				}
				a.data[i*n+j], a.data[j*n+i] = v, v
			}
		}
		if dominant {
			for i := 0; i < n; i++ {
				a.data[i*n+i] = Norm1(a.data[i*n:i*n+n]) + 1
			}
		}
		checkCholeskyBits(t, "fuzz", a)
	})
}

// BenchmarkCholesky times NewCholesky and reports GFLOP/s at n³/3 flops
// per factorization.
func BenchmarkCholesky(b *testing.B) {
	for _, n := range []int{256, 1350} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := diagDominantSym(rand.New(rand.NewSource(1)), n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewCholesky(a); err != nil {
					b.Fatal(err)
				}
			}
			flops := float64(n) * float64(n) * float64(n) / 3 * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
