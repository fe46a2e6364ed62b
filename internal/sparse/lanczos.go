package sparse

import (
	"math"

	"repro/internal/mat"
)

// LanczosResult holds the Ritz values of a symmetric matrix computed by the
// Lanczos iteration.
type LanczosResult struct {
	// RitzValues are the eigenvalues of the tridiagonal projection,
	// ascending. The extremes converge to the matrix's extreme eigenvalues.
	RitzValues []float64
	// Steps is the number of Lanczos steps actually performed (the
	// iteration stops early on invariant subspaces).
	Steps int
}

// Lanczos runs k steps of the symmetric Lanczos iteration with full
// reorthogonalization, starting from v0 (nil for a deterministic default),
// optionally projecting every iterate against the unit vectors in deflate
// (each must have unit norm). It returns the Ritz values of the projected
// tridiagonal matrix.
//
// Full reorthogonalization costs O(k²n) but keeps the Ritz values accurate
// without the classical ghost-eigenvalue pathology; intended for the small
// k (extremal eigenvalue) use cases in this repository.
func Lanczos(a *CSR, k int, v0 []float64, deflate [][]float64) (*LanczosResult, error) {
	n := a.rows
	if a.cols != n {
		return nil, ErrShape
	}
	if n == 0 || k < 1 {
		return nil, ErrShape
	}
	if k > n {
		k = n
	}
	for _, d := range deflate {
		if len(d) != n {
			return nil, ErrShape
		}
	}

	project := func(v []float64) {
		for _, d := range deflate {
			c := mat.Dot(v, d)
			if c != 0 {
				mat.AXPY(-c, d, v)
			}
		}
	}

	v := make([]float64, n)
	if v0 != nil {
		if len(v0) != n {
			return nil, ErrShape
		}
		copy(v, v0)
	} else {
		lanczosStart(v)
	}
	project(v)
	nrm := mat.Norm2(v)
	if nrm == 0 {
		return nil, ErrShape
	}
	mat.ScaleVec(1/nrm, v)

	basis := make([][]float64, 0, k)
	alphas := make([]float64, 0, k)
	betas := make([]float64, 0, k) // beta[i] links step i and i+1
	w := make([]float64, n)
	for step := 0; step < k; step++ {
		basis = append(basis, mat.CloneVec(v))
		if err := a.MulVecTo(w, v); err != nil {
			return nil, err
		}
		project(w)
		alpha := mat.Dot(w, v)
		alphas = append(alphas, alpha)
		// w ← w − αv − βv_prev, then full reorthogonalization.
		mat.AXPY(-alpha, v, w)
		if step > 0 {
			mat.AXPY(-betas[step-1], basis[step-1], w)
		}
		for _, b := range basis {
			c := mat.Dot(w, b)
			if c != 0 {
				mat.AXPY(-c, b, w)
			}
		}
		beta := mat.Norm2(w)
		if beta < 1e-13*math.Max(1, math.Abs(alpha)) {
			// Invariant subspace found: the Ritz values are exact.
			break
		}
		betas = append(betas, beta)
		for i := range v {
			v[i] = w[i] / beta
		}
	}

	steps := len(alphas)
	t := mat.NewDense(steps, steps)
	for i := 0; i < steps; i++ {
		t.Set(i, i, alphas[i])
		if i+1 < steps && i < len(betas) {
			t.Set(i, i+1, betas[i])
			t.Set(i+1, i, betas[i])
		}
	}
	eig, err := mat.NewEigenSym(t, 0)
	if err != nil {
		return nil, err
	}
	return &LanczosResult{RitzValues: eig.Values, Steps: steps}, nil
}

// lanczosStart fills v with the fixed, unnormalized default start vector:
// entries of varied size avoid symmetry traps.
func lanczosStart(v []float64) {
	for i := range v {
		v[i] = 1 + 0.5*math.Sin(float64(3*i+1))
	}
}

// radiusSteps is LanczosRadius's step cap: 50 plain steps put the extreme
// Ritz values of this repository's solve systems within about 1e-6 of the
// extreme eigenvalues, at one matrix-vector product each.
const radiusSteps = 50

// LanczosRadius estimates the spectral radius of M = c·I − diag(s)·A·diag(s)
// for a symmetric A as the largest |extreme Ritz value| of a plain
// three-term Lanczos iteration: Lanczos's fixed start, at most radiusSteps
// steps, and an early stop on an invariant Krylov space. M is applied
// implicitly, A through MulVecToWorkers, so the estimate is a pure function
// of (A, s, c), bitwise the same for every worker count. Without
// reorthogonalization Ritz values may repeat, but they stay inside the
// spectrum up to rounding, so the estimate approaches ρ(M) from below.
func LanczosRadius(a *CSR, s []float64, c float64, workers int) (float64, error) {
	n := a.rows
	if a.cols != n || len(s) != n {
		return 0, ErrShape
	}
	if n == 0 {
		return 0, nil
	}
	v := make([]float64, n)
	prev := make([]float64, n)
	u := make([]float64, n)
	w := make([]float64, n)
	lanczosStart(v)
	mat.ScaleVec(1/mat.Norm2(v), v)
	for i, si := range s {
		u[i] = si * v[i]
	}
	alphas := make([]float64, 0, radiusSteps)
	betas := append(make([]float64, 0, radiusSteps+1), 0) // betas[i] links steps i−1 and i
	var beta, norm float64
	for len(alphas) < radiusSteps {
		// Three fused passes: w = c·v − s∘(A u) and α = w·v; w −= α v + β
		// prev and ‖w‖²; then v = w/β and u = s∘v.
		if err := a.MulVecToWorkers(w, u, workers); err != nil {
			return 0, err
		}
		var alpha float64
		for i, si := range s {
			w[i] = c*v[i] - si*w[i]
			alpha += w[i] * v[i]
		}
		var ss float64
		for i := range w {
			w[i] = w[i] - alpha*v[i] - beta*prev[i]
			ss += w[i] * w[i]
		}
		alphas = append(alphas, alpha)
		next := math.Sqrt(ss)
		norm = max(norm, math.Abs(alpha)+beta+next)
		if next <= 1e-13*norm {
			break // invariant subspace: the Ritz values are exact
		}
		beta = next
		betas = append(betas, beta)
		prev, v = v, prev
		for i, si := range s {
			v[i] = w[i] / beta
			u[i] = si * v[i]
		}
	}
	lo, hi := tridiagExtremes(alphas, append(betas[:len(alphas)], 0))
	return max(math.Abs(lo), math.Abs(hi)), nil
}

// tridiagExtremes returns the smallest and largest eigenvalues of the
// symmetric tridiagonal matrix with diagonal alpha and off-diagonal
// b[1:len(alpha)] (b[0] = b[len(alpha)] = 0). It bisects the Gershgorin
// interval to rounding level on Sturm counts: T − xI has as many negative
// pivots as T has eigenvalues below x.
//
// Lanczos's dense step, mat.NewEigenSym, does not fit here: once a plain
// Lanczos run misses its invariant subspace by rounding, T fills with
// near-copies of converged Ritz values, and the cyclic Jacobi sweeps stall
// on such clusters (FuzzProbeHealth's 3×3 ghost seed: off-diagonal mass
// still 1e-10 after 100 sweeps, mat.ErrNotConverged). Bisection is
// indifferent to clusters and costs O(steps) per halving.
func tridiagExtremes(alpha, b []float64) (lo, hi float64) {
	below := func(x float64) int {
		count, q := 0, 1.0
		for i, a := range alpha {
			if q = a - x - b[i]*b[i]/q; q == 0 {
				q = math.SmallestNonzeroFloat64 // a zero pivot, taken from above
			}
			if q < 0 {
				count++
			}
		}
		return count
	}
	glo, ghi := math.Inf(1), math.Inf(-1)
	for i, a := range alpha {
		r := math.Abs(b[i]) + math.Abs(b[i+1])
		glo, ghi = min(glo, a-r), max(ghi, a+r)
	}
	tol := 0x1p-50 * max(math.Abs(glo), math.Abs(ghi))
	bisect := func(k int) float64 {
		lo, hi := glo, ghi
		for hi-lo > tol {
			if mid := lo + (hi-lo)/2; below(mid) > k {
				hi = mid
			} else {
				lo = mid
			}
		}
		return lo + (hi-lo)/2
	}
	return bisect(0), bisect(len(alpha) - 1)
}
