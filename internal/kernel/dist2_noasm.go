//go:build !amd64

package kernel

// useAVX is always false off amd64; dist2x4 takes the scalar path.
const useAVX = false

// dist2x4Lanes is only reachable when useAVX is true, so never here.
func dist2x4Lanes(x, y0, y1, y2, y3 *float64, nq int, out *[16]float64) {
	panic("kernel: dist2x4Lanes called without AVX support")
}

// dist2Row8 is only reachable when useAVX is true, so never here.
func dist2Row8(x, y0, y1, y2, y3, y4, y5, y6, y7 *float64, d int, out *float64) {
	panic("kernel: dist2Row8 called without AVX support")
}

// dist2Block is only reachable when useAVX is true, so never here.
func dist2Block(q, blk *float64, d, w int, out *float64) {
	panic("kernel: dist2Block called without AVX support")
}
