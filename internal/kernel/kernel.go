// Package kernel provides the similarity kernels and bandwidth rules used to
// build the graphs in the reproduction.
//
// Theorem II.1 of the paper requires a kernel K that is (i) bounded,
// (ii) compactly supported, and (iii) bounded below by β > 0 on a ball
// around the origin. The Uniform, Epanechnikov, Triangular, and Tricube
// kernels satisfy all three; the Gaussian RBF kernel (used in the paper's
// experiments) violates (ii) but is included because the paper's own
// numerical studies use it on truncated inputs.
package kernel

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/parallel"
)

var (
	// ErrBandwidth is returned for non-positive bandwidths.
	ErrBandwidth = errors.New("kernel: bandwidth must be positive")
	// ErrEmpty is returned when an input sample is empty.
	ErrEmpty = errors.New("kernel: empty input")
	// ErrUnknown is returned by Parse for unrecognized kernel names.
	ErrUnknown = errors.New("kernel: unknown kernel name")
)

// Kind enumerates the built-in kernel profiles.
type Kind int

// Supported kernel kinds.
const (
	Gaussian Kind = iota + 1
	Uniform
	Epanechnikov
	Triangular
	Tricube
)

// String returns the lowercase kernel name.
func (k Kind) String() string {
	switch k {
	case Gaussian:
		return "gaussian"
	case Uniform:
		return "uniform"
	case Epanechnikov:
		return "epanechnikov"
	case Triangular:
		return "triangular"
	case Tricube:
		return "tricube"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Parse maps a kernel name to its Kind.
func Parse(name string) (Kind, error) {
	switch name {
	case "gaussian", "rbf":
		return Gaussian, nil
	case "uniform", "boxcar":
		return Uniform, nil
	case "epanechnikov":
		return Epanechnikov, nil
	case "triangular":
		return Triangular, nil
	case "tricube":
		return Tricube, nil
	default:
		return 0, fmt.Errorf("kernel: %q: %w", name, ErrUnknown)
	}
}

// CompactSupport reports whether the kernel profile has compact support
// (condition (ii) of Theorem II.1).
func (k Kind) CompactSupport() bool { return k != Gaussian }

// Profile evaluates the kernel profile at the scaled distance u = ‖x−y‖/h.
// Profiles are normalized so Profile(0) = 1, matching the paper's similarity
// convention 0 ≤ w_ij ≤ 1.
func (k Kind) Profile(u float64) float64 {
	u = math.Abs(u)
	switch k {
	case Gaussian:
		return math.Exp(-u * u)
	case Uniform:
		if u <= 1 {
			return 1
		}
		return 0
	case Epanechnikov:
		if u <= 1 {
			return 1 - u*u
		}
		return 0
	case Triangular:
		if u <= 1 {
			return 1 - u
		}
		return 0
	case Tricube:
		if u <= 1 {
			c := 1 - u*u*u
			return c * c * c
		}
		return 0
	default:
		return 0
	}
}

// K is a similarity kernel with bandwidth h: w(x, y) = Profile(‖x−y‖/h).
type K struct {
	kind Kind
	h    float64
}

// New returns a kernel of the given kind and bandwidth h > 0.
func New(kind Kind, h float64) (*K, error) {
	if h <= 0 || math.IsNaN(h) || math.IsInf(h, 0) {
		return nil, fmt.Errorf("kernel: h=%v: %w", h, ErrBandwidth)
	}
	return &K{kind: kind, h: h}, nil
}

// MustNew is New for package-internal constants; it panics on invalid input.
func MustNew(kind Kind, h float64) *K {
	k, err := New(kind, h)
	if err != nil {
		panic(err)
	}
	return k
}

// Kind returns the kernel profile kind.
func (k *K) Kind() Kind { return k.kind }

// Bandwidth returns h.
func (k *K) Bandwidth() float64 { return k.h }

// Weight returns the similarity of x and y.
func (k *K) Weight(x, y []float64) float64 {
	return k.WeightDist2(dist2(x, y))
}

// WeightDist2 returns the similarity for a precomputed squared distance.
// Precomputing distances lets graph builders avoid re-deriving them per λ.
func (k *K) WeightDist2(d2 float64) float64 {
	if k.kind == Gaussian {
		// exp(-d²/h²) without the sqrt round-trip.
		return math.Exp(-d2 / (k.h * k.h))
	}
	return k.kind.Profile(math.Sqrt(d2) / k.h)
}

// dist2Lanes accumulates the squared differences of the first nq elements
// (nq a multiple of 4) into four lanes, lane l taking dimensions i ≡ l
// (mod 4). The four independent accumulators break the loop-carried
// dependency on a single sum, letting the FP adds pipeline; the lane
// convention is shared with the AVX kernel so scalar and vector paths are
// bitwise-identical.
func dist2Lanes(x, y []float64, nq int) (s0, s1, s2, s3 float64) {
	y = y[:len(x)] // bounds-check elimination hint
	for i := 0; i+4 <= nq; i += 4 {
		d0 := x[i] - y[i]
		d1 := x[i+1] - y[i+1]
		d2 := x[i+2] - y[i+2]
		d3 := x[i+3] - y[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return s0, s1, s2, s3
}

// Dist2 returns the squared Euclidean distance ‖x−y‖². It uses the same
// four-lane accumulation as the pairwise matrix pass, so the value is
// bitwise-identical to the corresponding PairwiseDist2 entry (in either
// argument order: (a−b)² and (b−a)² are the same float). The spatial
// indexes rely on that identity to reproduce brute-force graphs exactly.
func Dist2(x, y []float64) float64 { return dist2(x, y) }

// Dist2Rows fills out[i] with ‖q−rows[i]‖², batching the rows through the
// multi-row distance kernels (AVX on amd64 hosts, the same path as the
// pairwise matrix). Every entry is bitwise-identical to Dist2(q, rows[i]) —
// the lane convention is shared — so batch evaluation is a pure throughput
// optimization: it amortizes the loads of q and the loop overhead across
// rows. The serving batch path leans on this to stream one anchor block
// against many queries.
func Dist2Rows(q []float64, rows [][]float64, out []float64) {
	if len(out) < len(rows) {
		panic(errors.New("kernel: Dist2Rows output shorter than rows"))
	}
	i := 0
	for ; i+8 <= len(rows); i += 8 {
		dist2x8(q, (*[8][]float64)(rows[i:i+8]), (*[8]float64)(out[i:i+8]))
	}
	if i+4 <= len(rows) {
		dist2x4(q, rows[i], rows[i+1], rows[i+2], rows[i+3], (*[4]float64)(out[i:i+4]))
		i += 4
	}
	for ; i < len(rows); i++ {
		out[i] = dist2(q, rows[i])
	}
}

// BlockStride returns the per-dimension stride of a dimension-major block
// of n points: n rounded up to a multiple of four, the AVX vector width.
// The slots past n are padding.
func BlockStride(n int) int { return (n + 3) &^ 3 }

// Dist2Block returns ‖q−p_s‖² for the n points p_0 … p_{n−1} of a
// dimension-major block, where coordinate j of point s sits at
// blk[j*BlockStride(n)+s]. out must hold BlockStride(n) values: the AVX
// kernel works four points at a time and may write the padding slots, but
// the result is out[:n], so no padding slot reaches the caller.
//
// Every entry is bitwise-identical to Dist2(q, p_s): per point, dimension
// j < len(q)&^3 accumulates into lane j mod 4, the tail dimensions into
// lane 0, and the lanes reduce as (s0+s1)+(s2+s3), which is dist2's order.
// With the points side by side in a vector, the reduction is three
// vertical adds instead of a horizontal reduction per point.
func Dist2Block(q, blk []float64, n int, out []float64) []float64 {
	w := BlockStride(n)
	if n < 0 || len(blk) < len(q)*w || len(out) < w {
		panic(errors.New("kernel: Dist2Block block or output too short"))
	}
	switch {
	case n == 0:
	case len(q) == 0:
		clear(out[:n])
	case useAVX:
		dist2Block(&q[0], &blk[0], len(q), w, &out[0])
	default:
		dist2BlockGo(q, blk, n, w, out)
	}
	return out[:n]
}

// dist2BlockGo is the portable Dist2Block, one point at a time in dist2's
// lane order.
func dist2BlockGo(q, blk []float64, n, w int, out []float64) {
	d := len(q)
	nq := d &^ 3
	for s := 0; s < n; s++ {
		var s0, s1, s2, s3 float64
		j := 0
		for ; j < nq; j += 4 {
			d0 := q[j] - blk[j*w+s]
			d1 := q[j+1] - blk[(j+1)*w+s]
			d2 := q[j+2] - blk[(j+2)*w+s]
			d3 := q[j+3] - blk[(j+3)*w+s]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		for ; j < d; j++ {
			dd := q[j] - blk[j*w+s]
			s0 += dd * dd
		}
		out[s] = (s0 + s1) + (s2 + s3)
	}
}

func dist2(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(errors.New("kernel: dimension mismatch"))
	}
	nq := len(x) &^ 3
	s0, s1, s2, s3 := dist2Lanes(x, y, nq)
	for i := nq; i < len(x); i++ {
		d := x[i] - y[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// dist2x4 computes dist2 of x against four rows in one pass, writing the
// results to out. The rows share the x loads and loop overhead, and on
// amd64 hosts with AVX the quad runs vectorized (see dist2_amd64.s); the
// scalar pairwise pass is load-throughput-bound, so batching pairs is the
// only lever left past loop unrolling. Each pair accumulates in exactly
// the lane order dist2 uses, so results are bitwise-identical to four
// separate dist2 calls on every architecture.
func dist2x4(x, y0, y1, y2, y3 []float64, out *[4]float64) {
	d := len(x)
	if len(y0) != d || len(y1) != d || len(y2) != d || len(y3) != d {
		panic(errors.New("kernel: dimension mismatch"))
	}
	nq := d &^ 3
	var lanes [16]float64
	if useAVX && nq >= 4 {
		dist2x4Lanes(&x[0], &y0[0], &y1[0], &y2[0], &y3[0], nq, &lanes)
	} else {
		lanes[0], lanes[1], lanes[2], lanes[3] = dist2Lanes(x, y0, nq)
		lanes[4], lanes[5], lanes[6], lanes[7] = dist2Lanes(x, y1, nq)
		lanes[8], lanes[9], lanes[10], lanes[11] = dist2Lanes(x, y2, nq)
		lanes[12], lanes[13], lanes[14], lanes[15] = dist2Lanes(x, y3, nq)
	}
	ys := [4][]float64{y0, y1, y2, y3}
	for p := 0; p < 4; p++ {
		s0, s1, s2, s3 := lanes[4*p], lanes[4*p+1], lanes[4*p+2], lanes[4*p+3]
		y := ys[p]
		for i := nq; i < d; i++ {
			dd := x[i] - y[i]
			s0 += dd * dd
		}
		out[p] = (s0 + s1) + (s2 + s3)
	}
}

// dist2x8 is the eight-row variant of dist2x4; on amd64 with AVX the whole
// computation, tail and reduction included, runs in dist2Row8.
func dist2x8(x []float64, ys *[8][]float64, out *[8]float64) {
	d := len(x)
	for _, y := range ys {
		if len(y) != d {
			panic(errors.New("kernel: dimension mismatch"))
		}
	}
	if d == 0 {
		*out = [8]float64{}
		return
	}
	if useAVX {
		dist2Row8(&x[0], &ys[0][0], &ys[1][0], &ys[2][0], &ys[3][0],
			&ys[4][0], &ys[5][0], &ys[6][0], &ys[7][0], d, &out[0])
		return
	}
	nq := d &^ 3
	for p := 0; p < 8; p++ {
		s0, s1, s2, s3 := dist2Lanes(x, ys[p], nq)
		y := ys[p]
		for i := nq; i < d; i++ {
			dd := x[i] - y[i]
			s0 += dd * dd
		}
		out[p] = (s0 + s1) + (s2 + s3)
	}
}

// PaperBandwidth returns the bandwidth h_n = (log n / n)^{1/p} used in the
// paper's synthetic studies (p = input dimension = 5 there). It requires
// n >= 2 so that log n > 0.
func PaperBandwidth(n, p int) (float64, error) {
	if n < 2 || p < 1 {
		return 0, fmt.Errorf("kernel: PaperBandwidth(n=%d, p=%d): %w", n, p, ErrEmpty)
	}
	return math.Pow(math.Log(float64(n))/float64(n), 1/float64(p)), nil
}

// MedianHeuristic returns sqrt(median of squared pairwise distances), the σ
// used for the paper's COIL experiment (there σ² = median squared distance).
// With maxPairs > 0 the median is computed over a deterministic subsample of
// pairs to bound cost on large inputs.
func MedianHeuristic(x [][]float64, maxPairs int) (float64, error) {
	n := len(x)
	if n < 2 {
		return 0, ErrEmpty
	}
	total := n * (n - 1) / 2
	var d2s []float64
	if maxPairs > 0 && total > maxPairs {
		// Deterministic stride subsample over the flattened pair index.
		stride := total / maxPairs
		if stride < 1 {
			stride = 1
		}
		d2s = make([]float64, 0, maxPairs+1)
		idx := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if idx%stride == 0 {
					d2s = append(d2s, dist2(x[i], x[j]))
				}
				idx++
			}
		}
	} else {
		d2s = make([]float64, 0, total)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d2s = append(d2s, dist2(x[i], x[j]))
			}
		}
	}
	sort.Float64s(d2s)
	med := median(d2s)
	if med <= 0 {
		// All points identical: fall back to 1 so w ≡ Profile(0) = 1,
		// matching the paper's Section III toy construction.
		return 1, nil
	}
	return math.Sqrt(med), nil
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth
// 1.06 σ̂ n^{-1/5} for a single coordinate sample, a standard reference rule
// for kernel regression baselines.
func SilvermanBandwidth(sample []float64) (float64, error) {
	n := len(sample)
	if n < 2 {
		return 0, ErrEmpty
	}
	var mean float64
	for _, v := range sample {
		mean += v
	}
	mean /= float64(n)
	var ss float64
	for _, v := range sample {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	if sd == 0 {
		return 0, fmt.Errorf("kernel: zero variance sample: %w", ErrBandwidth)
	}
	return 1.06 * sd * math.Pow(float64(n), -0.2), nil
}

// PairwiseDist2 returns the full matrix of squared Euclidean distances as a
// flat row-major slice of length n*n. Shared by graph builders so the O(n²d)
// distance pass happens once per dataset rather than once per λ value.
// It runs on all available cores; see PairwiseDist2Workers.
func PairwiseDist2(x [][]float64) ([]float64, error) {
	return PairwiseDist2Workers(x, 0)
}

// PairwiseDist2Workers is PairwiseDist2 with an explicit worker count
// (workers <= 0 selects runtime.GOMAXPROCS(0), workers == 1 runs serially on
// the calling goroutine). Each element d²(i,j) is computed independently
// from x[i] and x[j], so the output is bitwise-identical for every worker
// count.
//
// Work is row-blocked over the upper triangle: the worker that owns row i
// computes d²(i,j) for all j > i. Rows are over-decomposed into chunks to
// balance the triangular load profile (early rows carry more pairs than
// late ones), and within a chunk the j loop is tiled so the tile of points
// stays cache-resident while every row of the chunk streams against it —
// without tiling the pass re-reads all of x from memory for each row. The
// lower triangle is filled per tile right after the tile is computed, a
// cache-blocked transpose of hot data; mirroring element-by-element inside
// the pair loop would scatter one write per element across n distinct
// cache lines.
//
// distTilePts rows of x per tile: at d = 50 a tile is ~75 KiB, safely
// L2-resident together with the output rows in flight.
const distTilePts = 192

func PairwiseDist2Workers(x [][]float64, workers int) ([]float64, error) {
	n := len(x)
	if n == 0 {
		return nil, ErrEmpty
	}
	out := make([]float64, n*n)
	parallel.For(workers, n, func(lo, hi int) {
		for jlo := lo + 1; jlo < n; jlo += distTilePts {
			jhi := jlo + distTilePts
			if jhi > n {
				jhi = n
			}
			for i := lo; i < hi; i++ {
				jstart := i + 1
				if jstart < jlo {
					jstart = jlo
				}
				if jstart >= jhi {
					continue
				}
				xi := x[i]
				row := out[i*n : (i+1)*n]
				j := jstart
				for ; j+8 <= jhi; j += 8 {
					dist2x8(xi, (*[8][]float64)(x[j:j+8]), (*[8]float64)(row[j:j+8]))
				}
				if j+4 <= jhi {
					dist2x4(xi, x[j], x[j+1], x[j+2], x[j+3], (*[4]float64)(row[j:j+4]))
					j += 4
				}
				for ; j < jhi; j++ {
					row[j] = dist2(xi, x[j])
				}
			}
			// Mirror the freshly computed block to the lower triangle while
			// it is still cache-resident. The writes land below the diagonal
			// of rows j in the tile, disjoint from every upper-triangle write
			// (row j's own worker only touches columns > j), so blocks stay
			// independent across workers.
			for j := jlo; j < jhi; j++ {
				imax := j
				if imax > hi {
					imax = hi
				}
				rowj := out[j*n : (j+1)*n]
				for i := lo; i < imax; i++ {
					rowj[i] = out[i*n+j]
				}
			}
		}
	})
	return out, nil
}
