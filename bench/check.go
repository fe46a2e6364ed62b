package main

import (
	"fmt"
	"math"

	graphssl "repro"
	"repro/internal/core"
)

// Output checks. The references here are written out in plain loops,
// independent of the SIMD distance kernels, the spatial pruning and the
// solver code they check.

// bruteNW is the Nadaraya–Watson estimate at q over every anchor:
// Σ w_i v_i / Σ w_i with w_i = Profile(‖q − a_i‖ / h). It also returns the
// scale Σ w_i |v_i| / Σ w_i that bounds the rounding error of any summation
// order, and ok=false when no anchor carries weight.
func bruteNW(q []float64, anchors [][]float64, values []float64, kind graphssl.Kernel, h float64) (est, scale float64, ok bool) {
	var num, den, abs float64
	for i, a := range anchors {
		var d2 float64
		for j := range q {
			d := q[j] - a[j]
			d2 += d * d
		}
		var w float64
		switch kind {
		case graphssl.Gaussian:
			w = math.Exp(-d2 / (h * h))
		case graphssl.Epanechnikov:
			if u2 := d2 / (h * h); u2 <= 1 {
				w = 1 - u2
			}
		default:
			panic(fmt.Sprintf("bruteNW: kernel %v has no reference", kind))
		}
		if w > 0 {
			num += w * values[i]
			den += w
			abs += w * math.Abs(values[i])
		}
	}
	if den == 0 {
		return 0, 0, false
	}
	return num / den, abs / den, true
}

// nwTol is the relative tolerance served predictions must meet against
// bruteNW.
const nwTol = 1e-12

// checkNW compares a served estimate with the brute-force reference.
func checkNW(got float64, q []float64, anchors [][]float64, values []float64, kind graphssl.Kernel, h float64) error {
	want, scale, ok := bruteNW(q, anchors, values, kind, h)
	if !ok {
		return fmt.Errorf("reference is isolated but the server answered %v", got)
	}
	if d := math.Abs(got - want); !(d <= nwTol*scale) {
		return fmt.Errorf("served %v, brute-force %v (|diff| %.3g > %.0e x %.3g)", got, want, d, nwTol, scale)
	}
	return nil
}

// hardResidual is the relative residual ‖B + W f − D∘f‖₂ / ‖B‖₂ of the
// hard-criterion system (D − W) f = B at the unlabeled scores f.
func hardResidual(sys *core.PropagationSystem, f []float64) float64 {
	var rr, bb float64
	for k := range f {
		cols, vals := sys.W.RowNNZ(k)
		s := sys.B[k] - sys.D[k]*f[k]
		for c, j := range cols {
			s += vals[c] * f[j]
		}
		rr += s * s
		bb += sys.B[k] * sys.B[k]
	}
	if bb == 0 {
		return math.Sqrt(rr)
	}
	return math.Sqrt(rr / bb)
}

// supDiff returns max |a_i − b_i|.
func supDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m || math.IsNaN(d) {
			m = d
		}
	}
	return m
}

// bitwiseEqual reports whether a and b hold identical float64 bits.
func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
