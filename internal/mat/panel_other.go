//go:build !amd64

package mat

// useAVX is always false off amd64; panelDots takes the Go path.
const useAVX = false

// panelDots4x8 is only reachable when useAVX is true, so never here.
func panelDots4x8(l0, l1, l2, l3, p *float64, nk int, out *[4 * panelWidth]float64) {
	panic("mat: panelDots4x8 called without AVX support")
}
