package mat

// Matrix-level operations (the BLAS-2/3 layer). Operations allocate their
// results; in-place variants are provided where the reproduction's hot paths
// need them.

// Add returns a + b.
func Add(a, b *Dense) (*Dense, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, ErrShape
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out, nil
}

// Sub returns a - b.
func Sub(a, b *Dense) (*Dense, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, ErrShape
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out, nil
}

// Mul returns the matrix product a*b.
//
// The inner loops run over contiguous rows of b (ikj ordering) so the access
// pattern stays cache-friendly without an explicit transpose.
func Mul(a, b *Dense) (*Dense, error) {
	if a.cols != b.rows {
		return nil, ErrShape
	}
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product a*x.
func MulVec(a *Dense, x []float64) ([]float64, error) {
	if a.cols != len(x) {
		return nil, ErrShape
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		out[i] = Dot(a.data[i*a.cols:(i+1)*a.cols], x)
	}
	return out, nil
}

// MulVecTo computes dst = a*x without allocating. dst must have length
// a.Rows() and must not alias x.
func MulVecTo(dst []float64, a *Dense, x []float64) error {
	if a.cols != len(x) || a.rows != len(dst) {
		return ErrShape
	}
	for i := 0; i < a.rows; i++ {
		dst[i] = Dot(a.data[i*a.cols:(i+1)*a.cols], x)
	}
	return nil
}

// MulTVec returns aᵀ*x.
func MulTVec(a *Dense, x []float64) ([]float64, error) {
	if a.rows != len(x) {
		return nil, ErrShape
	}
	out := make([]float64, a.cols)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			out[j] += xv * v
		}
	}
	return out, nil
}

// MulDiagRight returns a * diag(d), scaling column j of a by d[j].
func MulDiagRight(a *Dense, d []float64) (*Dense, error) {
	if len(d) != a.cols {
		return nil, ErrShape
	}
	out := a.Clone()
	for i := 0; i < out.rows; i++ {
		row := out.data[i*out.cols : (i+1)*out.cols]
		for j := range row {
			row[j] *= d[j]
		}
	}
	return out, nil
}
