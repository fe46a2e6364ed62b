//go:build amd64

package mat

import "repro/internal/cpu"

// useAVX selects panelDots4x8; tests clear it to force the Go path.
var useAVX = cpu.AVX

// panelDots4x8 computes panelDots' 4×8 tile over nk ≥ 1 columns with AVX.
// Implemented in panel_amd64.s.
//
//go:noescape
func panelDots4x8(l0, l1, l2, l3, p *float64, nk int, out *[4 * panelWidth]float64)
