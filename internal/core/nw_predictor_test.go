package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/randx"
)

// predCase draws anchors, values, and off-sample query points.
func predCase(seed int64, nAnchor, nQuery, d int) (anchors [][]float64, values []float64, queries [][]float64) {
	rng := randx.New(seed)
	draw := func(n int) [][]float64 {
		pts := make([][]float64, n)
		for i := range pts {
			xi := make([]float64, d)
			for j := range xi {
				v := rng.Norm()
				if rng.Float64() < 0.3 {
					v = math.Round(v) // exact ties
				}
				xi[j] = v
			}
			pts[i] = xi
		}
		return pts
	}
	anchors = draw(nAnchor)
	values = make([]float64, nAnchor)
	for i := range values {
		values[i] = rng.Norm()
	}
	queries = draw(nQuery)
	return anchors, values, queries
}

// nwGraphCase draws a labeled/unlabeled split with interleaved labeled
// indices (not the labeled-first layout) to exercise the ascending-order
// anchor layout.
func nwGraphCase(seed int64, n, nLabeled, d int) (x [][]float64, labeled []int, y []float64) {
	rng := randx.New(seed)
	x = make([][]float64, n)
	for i := range x {
		xi := make([]float64, d)
		for j := range xi {
			v := rng.Norm()
			if rng.Float64() < 0.4 {
				v = math.Round(v) // exact ties
			}
			xi[j] = v
		}
		x[i] = xi
	}
	stride := n / nLabeled
	if stride < 1 {
		stride = 1
	}
	for i := 0; len(labeled) < nLabeled; i = (i + stride) % n {
		dup := false
		for _, l := range labeled {
			if l == i {
				dup = true
				break
			}
		}
		if dup {
			i++
			continue
		}
		labeled = append(labeled, i)
		y = append(y, rng.Bernoulli(0.5))
	}
	return x, labeled, y
}

// labeledAnchors returns the labeled points and responses in ascending node
// order, the anchor layout under which the predictor matches the graph
// estimator bitwise.
func labeledAnchors(x [][]float64, labeled []int, y []float64) ([][]float64, []float64) {
	order := make([]int, len(labeled))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return labeled[order[a]] < labeled[order[b]] })
	ax := make([][]float64, len(labeled))
	av := make([]float64, len(labeled))
	for p, o := range order {
		ax[p], av[p] = x[labeled[o]], y[o]
	}
	return ax, av
}

// TestNWPredictorMatchesGraph checks the transductive contract: a predictor
// over the labeled points in ascending node order is bitwise-identical to
// NadarayaWatson on a default-built graph at every unlabeled point, for
// compact kernels (KD-tree lookup) and the Gaussian (brute scan), at
// several dimensions and worker counts.
func TestNWPredictorMatchesGraph(t *testing.T) {
	cases := []struct {
		name       string
		k          *kernel.K
		n, nLab, d int
		path       string
	}{
		{"epan-kdtree-d2", kernel.MustNew(kernel.Epanechnikov, 2.0), 300, 128, 2, "kdtree"},
		{"uniform-kdtree-d3", kernel.MustNew(kernel.Uniform, 1.5), 260, 100, 3, "kdtree"},
		{"epan-kdtree", kernel.MustNew(kernel.Epanechnikov, 3.0), 220, 90, 8, "kdtree"},
		{"epan-small-brute", kernel.MustNew(kernel.Epanechnikov, 2.0), 80, 20, 2, "brute"},
		{"gaussian-brute", kernel.MustNew(kernel.Gaussian, 1.0), 150, 70, 2, "brute"},
	}
	for _, tc := range cases {
		x, labeled, y := nwGraphCase(int64(100+tc.n), tc.n, tc.nLab, tc.d)
		b, err := graph.NewBuilder(tc.k)
		if err != nil {
			t.Fatal(err)
		}
		g, err := b.Build(x)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		p, err := NewProblem(g, labeled, y)
		if err != nil {
			t.Fatal(err)
		}
		ref, refErr := NadarayaWatson(p)
		unl := p.Unlabeled()
		qs := make([][]float64, len(unl))
		for r, u := range unl {
			qs[r] = x[u]
		}
		ax, av := labeledAnchors(x, labeled, y)
		for _, w := range []int{1, 4, 0} {
			pred, err := NewNWPredictor(ax, av, tc.k, 0, w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			if pred.Path() != tc.path {
				t.Fatalf("%s: path %q, want %q", tc.name, pred.Path(), tc.path)
			}
			got := make([]float64, len(qs))
			status := make([]NWStatus, len(qs))
			pred.PredictBatch(got, status, qs, w)
			isolated := false
			for _, st := range status {
				isolated = isolated || st == NWIsolated
			}
			if refErr != nil {
				if !errors.Is(refErr, ErrIsolated) || !isolated {
					t.Fatalf("%s workers=%d: graph NW failed (%v) but no query was isolated", tc.name, w, refErr)
				}
				continue
			}
			for i := range unl {
				if status[i] != NWOK {
					t.Fatalf("%s workers=%d: point %d status %d", tc.name, w, unl[i], status[i])
				}
				if got[i] != ref[i] {
					t.Fatalf("%s workers=%d: estimate %d = %v, want %v (must be bitwise-identical)",
						tc.name, w, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestNWPredictorIsolated: a far-away point under a compact kernel has no
// labeled anchor in its support and must surface ErrIsolated.
func TestNWPredictorIsolated(t *testing.T) {
	x := [][]float64{{0, 0}, {0.5, 0}, {100, 100}}
	k := kernel.MustNew(kernel.Epanechnikov, 1.0)
	pred, err := NewNWPredictor(x[:2], []float64{1, 0}, k, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pred.Predict(x[2], nil); !errors.Is(err, ErrIsolated) {
		t.Fatalf("want ErrIsolated, got %v", err)
	}
	status := make([]NWStatus, 1)
	pred.PredictBatch(make([]float64, 1), status, x[2:], 1)
	if status[0] != NWIsolated {
		t.Fatalf("batch status %d, want NWIsolated", status[0])
	}
}

// TestNWPredictorBatchMatchesPredict checks the batch contract: PredictBatch
// is bitwise-identical to per-point Predict at every worker count, on every
// lookup path (brute incl. the tiled kernel, KD-tree radius, k-NN).
func TestNWPredictorBatchMatchesPredict(t *testing.T) {
	cases := []struct {
		name    string
		k       *kernel.K
		d, knn  int
		nAnchor int
	}{
		{"gaussian-brute-tiled", kernel.MustNew(kernel.Gaussian, 1.5), 7, 0, 203},
		{"gaussian-brute-small", kernel.MustNew(kernel.Gaussian, 1.5), 3, 0, 13},
		{"epanechnikov-kdtree-radius", kernel.MustNew(kernel.Epanechnikov, 2.5), 3, 0, 150},
		{"tricube-kdtree-radius", kernel.MustNew(kernel.Tricube, 3.5), 9, 0, 150},
		{"triangular-brute-highdim", kernel.MustNew(kernel.Triangular, 6), 18, 0, 150},
		{"gaussian-knn", kernel.MustNew(kernel.Gaussian, 1.5), 5, 7, 150},
		{"epanechnikov-knn", kernel.MustNew(kernel.Epanechnikov, 3), 5, 9, 150},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			anchors, values, queries := predCase(11, tc.nAnchor, 90, tc.d)
			p, err := NewNWPredictor(anchors, values, tc.k, tc.knn, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, len(queries))
			wantIso := make([]bool, len(queries))
			s := p.NewScratch()
			for i, q := range queries {
				v, err := p.Predict(q, s)
				if err != nil {
					if !errors.Is(err, ErrIsolated) {
						t.Fatalf("Predict(%d): %v", i, err)
					}
					wantIso[i] = true
					continue
				}
				want[i] = v
			}
			for _, workers := range []int{1, 2, 3, 7} {
				got := make([]float64, len(queries))
				status := make([]NWStatus, len(queries))
				p.PredictBatch(got, status, queries, workers)
				for i := range queries {
					if wantIso[i] {
						if status[i] != NWIsolated {
							t.Fatalf("w=%d query %d: want isolated, got status %d", workers, i, status[i])
						}
						continue
					}
					if status[i] != NWOK {
						t.Fatalf("w=%d query %d: status %d", workers, i, status[i])
					}
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("w=%d query %d: batch %v != predict %v", workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestNWPredictorKNNSelection checks the k-NN path against brute-force
// selection under the strict (squared distance, index) order.
func TestNWPredictorKNNSelection(t *testing.T) {
	k := kernel.MustNew(kernel.Gaussian, 2)
	anchors, values, queries := predCase(29, 80, 40, 4)
	const knn = 5
	p, err := NewNWPredictor(anchors, values, k, knn, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewScratch()
	for qi, q := range queries {
		// Brute k-NN selection with the same tie-break.
		type cand struct {
			d2  float64
			idx int
		}
		cands := make([]cand, len(anchors))
		for i, a := range anchors {
			cands[i] = cand{kernel.Dist2(q, a), i}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].d2 != cands[b].d2 {
				return cands[a].d2 < cands[b].d2
			}
			return cands[a].idx < cands[b].idx
		})
		sel := cands[:knn]
		sort.Slice(sel, func(a, b int) bool { return sel[a].idx < sel[b].idx })
		var num, den float64
		for _, c := range sel {
			w := k.WeightDist2(c.d2)
			if w > 0 {
				num += w * values[c.idx]
				den += w
			}
		}
		want := num / den
		got, err := p.Predict(q, s)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("query %d: got %v want %v", qi, got, want)
		}
	}
}

// TestNWPredictorErrors covers construction and query validation.
func TestNWPredictorErrors(t *testing.T) {
	k := kernel.MustNew(kernel.Gaussian, 1)
	anchors := [][]float64{{0, 0}, {1, 1}}
	values := []float64{1, 2}
	if _, err := NewNWPredictor(anchors, values, nil, 0, 1); !errors.Is(err, ErrParam) {
		t.Fatalf("nil kernel: %v", err)
	}
	if _, err := NewNWPredictor(nil, nil, k, 0, 1); !errors.Is(err, ErrParam) {
		t.Fatalf("no anchors: %v", err)
	}
	if _, err := NewNWPredictor(anchors, values[:1], k, 0, 1); !errors.Is(err, ErrParam) {
		t.Fatalf("value mismatch: %v", err)
	}
	if _, err := NewNWPredictor([][]float64{{}}, []float64{1}, k, 0, 1); !errors.Is(err, ErrParam) {
		t.Fatalf("zero-dim: %v", err)
	}
	if _, err := NewNWPredictor([][]float64{{0}, {1, 2}}, values, k, 0, 1); !errors.Is(err, ErrParam) {
		t.Fatalf("ragged: %v", err)
	}
	if _, err := NewNWPredictor(anchors, values, k, -1, 1); !errors.Is(err, ErrParam) {
		t.Fatalf("negative knn: %v", err)
	}

	p, err := NewNWPredictor(anchors, values, k, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict([]float64{1}, nil); !errors.Is(err, ErrParam) {
		t.Fatalf("dim mismatch: %v", err)
	}

	// Compact kernel, far query: isolated.
	pc, err := NewNWPredictor(anchors, values, kernel.MustNew(kernel.Uniform, 0.5), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Predict([]float64{50, 50}, nil); !errors.Is(err, ErrIsolated) {
		t.Fatalf("isolated: %v", err)
	}
	dst := make([]float64, 2)
	status := make([]NWStatus, 2)
	pc.PredictBatch(dst, status, [][]float64{{50, 50}, {0}}, 1)
	if status[0] != NWIsolated || status[1] != NWBadDim {
		t.Fatalf("batch status = %v", status)
	}
}

// Benchmarks comparing the per-point scan against the tiled batch kernel —
// the single-core mechanism behind multi-point serving requests.
func BenchmarkNWPredict(b *testing.B) {
	for _, cfg := range []struct {
		nAnchor, d int
		k          *kernel.K
	}{
		{4800, 32, kernel.MustNew(kernel.Triangular, 14)},
		{8000, 128, kernel.MustNew(kernel.Triangular, 26)},
		{8000, 256, kernel.MustNew(kernel.Triangular, 36)},
	} {
		anchors, values, queries := predCase(7, cfg.nAnchor, 64, cfg.d)
		p, err := NewNWPredictor(anchors, values, cfg.k, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("one/a%d_d%d", cfg.nAnchor, cfg.d), func(b *testing.B) {
			s := p.NewScratch()
			for i := 0; i < b.N; i++ {
				if _, err := p.Predict(queries[i%len(queries)], s); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("batch64/a%d_d%d", cfg.nAnchor, cfg.d), func(b *testing.B) {
			dst := make([]float64, len(queries))
			status := make([]NWStatus, len(queries))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.PredictBatch(dst, status, queries, 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/point")
		})
	}
}

// TestNWPredictorZeroDenominator pins the zero-mass outcome on every lookup
// path: a query with no kernel mass to any selected anchor is NWIsolated in
// the batch API and ErrIsolated point-wise — never a 0/0 NaN score.
func TestNWPredictorZeroDenominator(t *testing.T) {
	anchors, values, _ := predCase(41, 120, 0, 3)
	far := []float64{500, 500, 500}
	cases := []struct {
		name string
		k    *kernel.K
		knn  int
		path string
	}{
		{"kdtree", kernel.MustNew(kernel.Uniform, 1.5), 0, "kdtree"},
		{"knn", kernel.MustNew(kernel.Epanechnikov, 1.5), 5, "knn"},
	}
	// High-dim compact kernel stays on the brute path.
	bAnchors, bValues, _ := predCase(43, 60, 0, 18)
	bruteFar := make([]float64, 18)
	for j := range bruteFar {
		bruteFar[j] = 500
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewNWPredictor(anchors, values, tc.k, tc.knn, 1)
			if err != nil {
				t.Fatal(err)
			}
			if p.Path() != tc.path {
				t.Fatalf("path = %q, want %q", p.Path(), tc.path)
			}
			if _, err := p.Predict(far, nil); !errors.Is(err, ErrIsolated) {
				t.Fatalf("far query: %v", err)
			}
			dst := []float64{math.NaN()}
			status := []NWStatus{NWOK}
			bounds := []float64{math.NaN()}
			p.PredictBatchBounds(dst, status, bounds, [][]float64{far}, 1, nil)
			if status[0] != NWIsolated {
				t.Fatalf("status = %d, want NWIsolated", status[0])
			}
			if bounds[0] != 0 && !(tc.knn > 0) {
				t.Fatalf("exact-path bound = %v", bounds[0])
			}
		})
	}
	t.Run("brute", func(t *testing.T) {
		p, err := NewNWPredictor(bAnchors, bValues, kernel.MustNew(kernel.Tricube, 1.5), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.Path() != "brute" {
			t.Fatalf("path = %q, want brute", p.Path())
		}
		if _, err := p.Predict(bruteFar, nil); !errors.Is(err, ErrIsolated) {
			t.Fatalf("far query: %v", err)
		}
	})
}

// TestNWScratchReuse checks that one scratch reused across many predictions
// — including pool round-trips — yields results bitwise-identical to fresh
// scratch per call, and that LastStats resets between calls.
func TestNWScratchReuse(t *testing.T) {
	k := kernel.MustNew(kernel.Epanechnikov, 2.5)
	anchors, values, queries := predCase(17, 150, 50, 3)
	p, err := NewNWPredictor(anchors, values, k, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Path() != "kdtree" {
		t.Fatalf("path = %q, want kdtree", p.Path())
	}
	reused := p.NewScratch()
	for i, q := range queries {
		fresh := p.NewScratch()
		vw, errW := p.Predict(q, fresh)
		vg, errG := p.Predict(q, reused)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("query %d: fresh err %v, reused err %v", i, errW, errG)
		}
		if errW != nil {
			if pr, b := reused.LastStats(); pr != len(anchors)-0 && b != 0 {
				continue
			}
			continue
		}
		if math.Float64bits(vw) != math.Float64bits(vg) {
			t.Fatalf("query %d: fresh %v != reused %v", i, vw, vg)
		}
		prF, bF := fresh.LastStats()
		prR, bR := reused.LastStats()
		if prF != prR || bF != bR {
			t.Fatalf("query %d: stats fresh (%d,%v) != reused (%d,%v)", i, prF, bF, prR, bR)
		}
		// Pool round-trip between calls must not change anything.
		p.PutScratch(reused)
		reused = p.GetScratch()
	}
}

// TestNWPredictorPrunedMatchesBrute pins the exact-pruning contract on all
// four compact kernels: the KD-tree radius path must be bitwise-identical
// to the full brute scan at every worker count, because every anchor it
// skips carries exactly zero kernel weight.
func TestNWPredictorPrunedMatchesBrute(t *testing.T) {
	kinds := []kernel.Kind{kernel.Uniform, kernel.Epanechnikov, kernel.Triangular, kernel.Tricube}
	for _, kind := range kinds {
		for _, dc := range []struct {
			d    int
			name string
		}{{3, "kdtree-d3"}, {9, "kdtree"}} {
			t.Run(fmt.Sprintf("%s/%s", kind, dc.name), func(t *testing.T) {
				k := kernel.MustNew(kind, 2.5)
				anchors, values, queries := predCase(59, 160, 60, dc.d)
				p, err := NewNWPredictor(anchors, values, k, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				if p.Path() != "kdtree" {
					t.Fatalf("path = %q, want kdtree", p.Path())
				}
				// A brute twin of the same predictor: identical anchors and
				// kernel, spatial index disabled.
				brute := &NWPredictor{dim: p.dim, k: p.k, x: p.x, v: p.v, path: nwBrute}
				want := make([]float64, len(queries))
				wantSt := make([]NWStatus, len(queries))
				brute.PredictBatch(want, wantSt, queries, 1)
				for _, workers := range []int{1, 2, 3, 7} {
					got := make([]float64, len(queries))
					st := make([]NWStatus, len(queries))
					bounds := make([]float64, len(queries))
					var stats NWBatchStats
					p.PredictBatchBounds(got, st, bounds, queries, workers, &stats)
					for i := range queries {
						if st[i] != wantSt[i] {
							t.Fatalf("w=%d query %d: status %d != brute %d", workers, i, st[i], wantSt[i])
						}
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("w=%d query %d: pruned %v != brute %v", workers, i, got[i], want[i])
						}
						if bounds[i] != 0 {
							t.Fatalf("w=%d query %d: exact path reported bound %v", workers, i, bounds[i])
						}
					}
					if workers == 1 && stats.AnchorsPruned == 0 {
						t.Fatal("spatial index pruned nothing on a compact kernel")
					}
				}
			})
		}
	}
}

// TestNWPredictorResidualBound checks the top-m truncation bound: it is in
// [0, 1), zero when nothing is skipped, and the truncation error obeys
// |f_trunc − f_full| <= bound · max_j |v_j − f_trunc|.
func TestNWPredictorResidualBound(t *testing.T) {
	k := kernel.MustNew(kernel.Gaussian, 2)
	anchors, values, queries := predCase(71, 120, 60, 4)
	const m = 9
	p, err := NewNWPredictor(anchors, values, k, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewNWPredictor(anchors, values, k, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewScratch()
	for qi, q := range queries {
		ft, err := p.Predict(q, s)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		pruned, bound := s.LastStats()
		if pruned != len(anchors)-m {
			t.Fatalf("query %d: pruned %d, want %d", qi, pruned, len(anchors)-m)
		}
		if bound <= 0 || bound >= 1 {
			t.Fatalf("query %d: bound %v outside (0,1)", qi, bound)
		}
		ff, err := full.Predict(q, nil)
		if err != nil {
			t.Fatalf("query %d full: %v", qi, err)
		}
		var maxDev float64
		for _, v := range values {
			if d := math.Abs(v - ft); d > maxDev {
				maxDev = d
			}
		}
		if err := math.Abs(ft - ff); err > bound*maxDev*(1+1e-12) {
			t.Fatalf("query %d: |f_trunc−f_full| = %v exceeds bound %v·%v", qi, err, bound, maxDev)
		}
	}
	// No truncation when m >= anchors: bound 0 on the same API.
	pAll, err := NewNWPredictor(anchors[:5], values[:5], k, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	sAll := pAll.NewScratch()
	if _, err := pAll.Predict(queries[0], sAll); err != nil {
		t.Fatal(err)
	}
	if pr, b := sAll.LastStats(); pr != 0 || b != 0 {
		t.Fatalf("untruncated: stats (%d, %v), want (0, 0)", pr, b)
	}
}

// TestZeroAllocPredict gates the warm per-point and batch prediction paths
// at zero heap allocations — the serving hot-path contract (run by the CI
// alloc gate).
func TestZeroAllocPredict(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector (sync.Pool drops puts)")
	}
	cases := []struct {
		name string
		k    *kernel.K
		d    int
		knn  int
	}{
		{"brute", kernel.MustNew(kernel.Gaussian, 1.5), 7, 0},
		{"kdtree-d3", kernel.MustNew(kernel.Epanechnikov, 2.5), 3, 0},
		{"kdtree", kernel.MustNew(kernel.Tricube, 3.5), 9, 0},
		{"knn", kernel.MustNew(kernel.Gaussian, 1.5), 5, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			anchors, values, queries := predCase(23, 150, 16, tc.d)
			p, err := NewNWPredictor(anchors, values, tc.k, tc.knn, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the pools.
			if _, err := p.Predict(queries[0], nil); err != nil && !errors.Is(err, ErrIsolated) {
				t.Fatal(err)
			}
			i := 0
			if n := testing.AllocsPerRun(200, func() {
				_, _ = p.Predict(queries[i%len(queries)], nil)
				i++
			}); n != 0 {
				t.Fatalf("Predict: %v allocs/op", n)
			}
			dst := make([]float64, len(queries))
			st := make([]NWStatus, len(queries))
			bounds := make([]float64, len(queries))
			var stats NWBatchStats
			p.PredictBatchBounds(dst, st, bounds, queries, 1, &stats)
			if n := testing.AllocsPerRun(50, func() {
				p.PredictBatchBounds(dst, st, bounds, queries, 1, &stats)
			}); n != 0 {
				t.Fatalf("PredictBatchBounds: %v allocs/op", n)
			}
		})
	}
}
