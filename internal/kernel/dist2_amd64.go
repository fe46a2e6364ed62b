//go:build amd64

package kernel

import "repro/internal/cpu"

// dist2x4Lanes accumulates squared differences of x against four rows over
// the first nq dimensions (nq a multiple of 4) into out, four mod-4 lanes
// per row, matching dist2Lanes exactly. Implemented in dist2_amd64.s with
// AVX; separate VSUBPD/VMULPD/VADDPD (no FMA contraction) keep the rounding
// identical to the scalar path.
//
//go:noescape
func dist2x4Lanes(x, y0, y1, y2, y3 *float64, nq int, out *[16]float64)

// dist2Row8 computes the eight finished squared distances of x against
// eight rows, including scalar tail dimensions and lane reduction, in the
// exact operation order of the scalar dist2.
//
//go:noescape
func dist2Row8(x, y0, y1, y2, y3, y4, y5, y6, y7 *float64, d int, out *float64)

// dist2Block writes the squared distances of q (d > 0 coordinates) to the
// w points of a dimension-major block with stride w (a multiple of 4),
// four points per vector, in the exact operation order of the scalar dist2.
//
//go:noescape
func dist2Block(q, blk *float64, d, w int, out *float64)

// useAVX selects the AVX kernels; tests clear it to force the scalar path.
var useAVX = cpu.AVX
