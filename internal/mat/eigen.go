package mat

import (
	"math"
	"sort"
)

// EigenSym holds the spectral decomposition A = V diag(λ) Vᵀ of a symmetric
// matrix, with eigenvalues sorted in ascending order and eigenvectors in the
// corresponding columns of V.
type EigenSym struct {
	Values  []float64
	Vectors *Dense
}

// NewEigenSym computes the eigendecomposition of the symmetric matrix a by
// the cyclic Jacobi method. symTol bounds the accepted asymmetry |a_ij−a_ji|;
// pass 0 to require exact symmetry up to 1e-10 of the max element.
func NewEigenSym(a *Dense, symTol float64) (*EigenSym, error) {
	if !a.IsSquare() {
		return nil, ErrSquare
	}
	if symTol <= 0 {
		symTol = 1e-10 * math.Max(1, a.MaxAbs())
	}
	if !a.IsSymmetric(symTol) {
		return nil, ErrShape
	}
	n := a.rows
	w := a.Clone()
	v := Eye(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Sum of off-diagonal magnitudes decides convergence.
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += math.Abs(w.data[i*n+j])
			}
		}
		if off == 0 || off < 1e-14*math.Max(1, w.MaxAbs())*float64(n*n) {
			return sortEigen(w, v), nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.data[p*n+q]
				if apq == 0 {
					continue
				}
				app := w.data[p*n+p]
				aqq := w.data[q*n+q]
				// Rotation angle from the standard Jacobi formulas.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				tau := s / (1 + c)
				// Update W = Jᵀ W J.
				w.data[p*n+p] = app - t*apq
				w.data[q*n+q] = aqq + t*apq
				w.data[p*n+q] = 0
				w.data[q*n+p] = 0
				for i := 0; i < n; i++ {
					if i == p || i == q {
						continue
					}
					aip := w.data[i*n+p]
					aiq := w.data[i*n+q]
					w.data[i*n+p] = aip - s*(aiq+tau*aip)
					w.data[i*n+q] = aiq + s*(aip-tau*aiq)
					w.data[p*n+i] = w.data[i*n+p]
					w.data[q*n+i] = w.data[i*n+q]
				}
				// Accumulate eigenvectors V = V J.
				for i := 0; i < n; i++ {
					vip := v.data[i*n+p]
					viq := v.data[i*n+q]
					v.data[i*n+p] = vip - s*(viq+tau*vip)
					v.data[i*n+q] = viq + s*(vip-tau*viq)
				}
			}
		}
	}
	return nil, ErrNotConverged
}

func sortEigen(w, v *Dense) *EigenSym {
	n := w.rows
	type pair struct {
		val float64
		idx int
	}
	ps := make([]pair, n)
	for i := 0; i < n; i++ {
		ps[i] = pair{val: w.data[i*n+i], idx: i}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].val < ps[b].val })
	vals := make([]float64, n)
	vecs := NewDense(n, n)
	for k, p := range ps {
		vals[k] = p.val
		for i := 0; i < n; i++ {
			vecs.data[i*n+k] = v.data[i*n+p.idx]
		}
	}
	return &EigenSym{Values: vals, Vectors: vecs}
}
