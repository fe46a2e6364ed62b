package mat

import "math"

// Vector helpers operate on plain []float64 slices. They are the BLAS-1
// layer of the package. Length mismatches panic, mirroring slice indexing.

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x, guarding against overflow by
// scaling with the largest magnitude element.
func Norm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Norm1 returns the sum of absolute values of x.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns max_i |x_i|; zero for an empty slice.
func NormInf(x []float64) float64 {
	var mx float64
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// AXPY computes y += alpha*x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// ScaleVec multiplies x by alpha in place.
func ScaleVec(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// SubVec returns x - y as a new slice.
func SubVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - y[i]
	}
	return out
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Constant returns a length-n slice filled with v.
func Constant(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// SumVec returns the sum of the elements of x.
func SumVec(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// MeanVec returns the arithmetic mean of x; NaN for an empty slice.
func MeanVec(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	return SumVec(x) / float64(len(x))
}

// MinVec returns the minimum element and its index; (+Inf, -1) when empty.
func MinVec(x []float64) (float64, int) {
	mn, idx := math.Inf(1), -1
	for i, v := range x {
		if v < mn {
			mn, idx = v, i
		}
	}
	return mn, idx
}

// MaxVec returns the maximum element and its index; (-Inf, -1) when empty.
func MaxVec(x []float64) (float64, int) {
	mx, idx := math.Inf(-1), -1
	for i, v := range x {
		if v > mx {
			mx, idx = v, i
		}
	}
	return mx, idx
}

// Dist2 returns the squared Euclidean distance between x and y.
func Dist2(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	var s float64
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between x and y.
func Dist(x, y []float64) float64 { return math.Sqrt(Dist2(x, y)) }

// VecEqual reports whether x and y have the same length and agree elementwise
// within tol.
func VecEqual(x, y []float64, tol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i, v := range x {
		if math.Abs(v-y[i]) > tol {
			return false
		}
	}
	return true
}
