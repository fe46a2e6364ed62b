package serve

import (
	"errors"
	"math"
	"testing"

	graphssl "repro"
	"repro/internal/randx"
)

// testData draws an n-point, d-dimensional training set with a scattered
// labeled subset of size nl.
func testData(seed int64, n, d, nl int) (x [][]float64, y []float64, labeled []int) {
	rng := randx.New(seed)
	x = make([][]float64, n)
	for i := range x {
		xi := make([]float64, d)
		for j := range xi {
			xi[j] = rng.Norm()
		}
		x[i] = xi
	}
	labeled = rng.Perm(n)[:nl]
	y = make([]float64, nl)
	for i, l := range labeled {
		s := 0.0
		for _, v := range x[l] {
			s += v
		}
		y[i] = randx.Logistic(s) + 0.1*rng.Norm()
	}
	return x, y, labeled
}

// fitSnapshot runs a hard-criterion fit and freezes it.
func fitSnapshot(t *testing.T, x [][]float64, y []float64, labeled []int, opts ...graphssl.Option) *graphssl.ModelSnapshot {
	t.Helper()
	res, err := graphssl.Fit(x, y, labeled, opts...)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	snap, err := res.Snapshot(x, y)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snap
}

// TestModelPredictMatchesNadarayaWatson is the serving acceptance contract:
// with labeled anchors, Predict at an in-sample unlabeled point is
// bitwise-identical to the NadarayaWatson baseline, per point and batched,
// at every worker count, for every kernel family (and so every spatial
// lookup path).
func TestModelPredictMatchesNadarayaWatson(t *testing.T) {
	// n/4 labeled points give 75–80 anchors, above nwMinIndexAnchors (64),
	// so the compact kernels at d ≤ 16 serve from the KD-tree.
	cases := []struct {
		name    string
		kernel  graphssl.Kernel
		h       float64
		n, d    int
		pruning string
	}{
		{"gaussian-brute", graphssl.Gaussian, 1.2, 320, 7, "brute"},
		{"epanechnikov-kdtree", graphssl.Epanechnikov, 2.5, 300, 3, "kdtree"},
		{"tricube-kdtree", graphssl.Tricube, 6.5, 300, 9, "kdtree"},
		{"triangular-highdim", graphssl.Triangular, 9.0, 300, 18, "brute"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, y, labeled := testData(3, tc.n, tc.d, tc.n/4)
			want, unl, err := graphssl.NadarayaWatson(x, y, labeled,
				graphssl.WithKernel(tc.kernel), graphssl.WithBandwidth(tc.h))
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			snap := fitSnapshot(t, x, y, labeled,
				graphssl.WithKernel(tc.kernel), graphssl.WithBandwidth(tc.h))
			for _, workers := range []int{1, 2, 3, 0} {
				m, err := NewModel(snap, WithWorkers(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if m.Dim() != tc.d || m.NumAnchors() != len(labeled) {
					t.Fatalf("workers=%d: dim=%d anchors=%d", workers, m.Dim(), m.NumAnchors())
				}
				if p := m.Info().Pruning; p != tc.pruning {
					t.Fatalf("workers=%d: pruning %q, want %q", workers, p, tc.pruning)
				}
				qs := make([][]float64, len(unl))
				for i, u := range unl {
					qs[i] = x[u]
				}
				got, errs := m.PredictBatch(qs)
				if errs != nil {
					t.Fatalf("workers=%d: batch errors: %v", workers, errs)
				}
				for i := range qs {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("workers=%d point %d: batch %v != baseline %v", workers, unl[i], got[i], want[i])
					}
					one, err := m.Predict(qs[i])
					if err != nil {
						t.Fatalf("workers=%d point %d: %v", workers, unl[i], err)
					}
					if math.Float64bits(one) != math.Float64bits(want[i]) {
						t.Fatalf("workers=%d point %d: predict %v != baseline %v", workers, unl[i], one, want[i])
					}
				}
			}
		})
	}
}

// TestModelAnchorAll checks the Delalleau-style anchor set: every training
// point anchors with its fitted score, so in-sample predictions reproduce
// the transductive fit's neighbourhood averages deterministically.
func TestModelAnchorAll(t *testing.T) {
	x, y, labeled := testData(5, 120, 4, 30)
	snap := fitSnapshot(t, x, y, labeled, graphssl.WithBandwidth(1.5))
	m, err := NewModel(snap, WithAnchorSet(AnchorAll))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumAnchors() != len(x) {
		t.Fatalf("anchors = %d, want %d", m.NumAnchors(), len(x))
	}
	info := m.Info()
	if info.AnchorSet != "all" || info.TrainN != 120 || info.LabeledN != 30 || info.Kernel != "gaussian" {
		t.Fatalf("info = %+v", info)
	}
	// Deterministic across repeated calls and worker counts.
	qs := [][]float64{x[0], x[7], {0.1, -0.2, 0.3, 0.4}}
	base, errs := m.PredictBatch(qs)
	if errs != nil {
		t.Fatalf("errors: %v", errs)
	}
	for _, workers := range []int{2, 0} {
		mw, err := NewModel(snap, WithAnchorSet(AnchorAll), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		got, errs := mw.PredictBatch(qs)
		if errs != nil {
			t.Fatalf("workers=%d errors: %v", workers, errs)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(base[i]) {
				t.Fatalf("workers=%d point %d: %v != %v", workers, i, got[i], base[i])
			}
		}
	}
}

// TestModelKNNSnapshot checks that a k-NN-built fit round-trips its
// sparsification into the predictor.
func TestModelKNNSnapshot(t *testing.T) {
	x, y, labeled := testData(9, 140, 5, 60)
	snap := fitSnapshot(t, x, y, labeled, graphssl.WithBandwidth(2.0), graphssl.WithKNN(8))
	if snap.KNN != 8 {
		t.Fatalf("snapshot KNN = %d", snap.KNN)
	}
	m, err := NewModel(snap)
	if err != nil {
		t.Fatal(err)
	}
	if m.Info().KNN != 8 {
		t.Fatalf("info KNN = %d", m.Info().KNN)
	}
	if _, err := m.Predict(x[labeled[0]]); err != nil {
		t.Fatal(err)
	}
}

// TestModelErrors covers snapshot and query validation.
func TestModelErrors(t *testing.T) {
	if _, err := NewModel(nil); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("nil snapshot: %v", err)
	}
	if _, err := NewModel(&graphssl.ModelSnapshot{}); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("empty snapshot: %v", err)
	}
	good := &graphssl.ModelSnapshot{
		X:         [][]float64{{0, 0}, {1, 1}, {2, 2}},
		Y:         []float64{1, 0},
		Labeled:   []int{0, 2},
		Scores:    []float64{1, 0.5, 0},
		Kernel:    graphssl.Uniform,
		Bandwidth: 1,
	}
	bad := *good
	bad.Bandwidth = -1
	if _, err := NewModel(&bad); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("bad bandwidth: %v", err)
	}
	bad = *good
	bad.Scores = bad.Scores[:2]
	if _, err := NewModel(&bad); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("score mismatch: %v", err)
	}
	bad = *good
	bad.Labeled = nil
	if _, err := NewModel(&bad); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("no labeled: %v", err)
	}
	bad = *good
	bad.Labeled = []int{0, 5}
	if _, err := NewModel(&bad); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("labeled out of range: %v", err)
	}
	bad = *good
	bad.KNN = -1
	if _, err := NewModel(&bad); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("negative knn: %v", err)
	}
	if _, err := NewModel(good, WithAnchorSet(AnchorSet(9))); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("bad anchor set: %v", err)
	}

	m, err := NewModel(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1}); !errors.Is(err, ErrPoint) {
		t.Fatalf("dim mismatch: %v", err)
	}
	if _, err := m.Predict([]float64{math.NaN(), 0}); !errors.Is(err, ErrPoint) {
		t.Fatalf("NaN point: %v", err)
	}
	if _, err := m.Predict([]float64{50, 50}); !errors.Is(err, ErrIsolated) {
		t.Fatalf("isolated: %v", err)
	}
	v, err := m.Predict([]float64{0.1, 0.1})
	if err != nil || v != 1 {
		t.Fatalf("near anchor 0: %v, %v", v, err)
	}
}

// TestModelPredictBatchMixed checks the bad-point compaction path: good
// points still get exactly the values they would alone, bad points get
// per-point errors.
func TestModelPredictBatchMixed(t *testing.T) {
	x, y, labeled := testData(13, 100, 4, 40)
	snap := fitSnapshot(t, x, y, labeled, graphssl.WithKernel(graphssl.Epanechnikov), graphssl.WithBandwidth(3.0))
	m, err := NewModel(snap, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	qs := [][]float64{
		x[1],
		{math.Inf(1), 0, 0, 0}, // bad
		x[2],
		{0, 0, 0},      // wrong dim
		{200, 0, 0, 0}, // isolated (compact kernel)
		x[3],
	}
	got, errs := m.PredictBatch(qs)
	if errs == nil {
		t.Fatal("expected per-point errors")
	}
	for _, i := range []int{0, 2, 5} {
		if errs[i] != nil {
			t.Fatalf("point %d: %v", i, errs[i])
		}
		want, err := m.Predict(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("point %d: %v != %v", i, got[i], want)
		}
	}
	if !errors.Is(errs[1], ErrPoint) || !errors.Is(errs[3], ErrPoint) {
		t.Fatalf("bad points: %v, %v", errs[1], errs[3])
	}
	if !errors.Is(errs[4], ErrIsolated) {
		t.Fatalf("isolated point: %v", errs[4])
	}
}
