package graph

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/sparse"
)

func gaussianBuilder(t *testing.T, h float64, opts ...Option) *Builder {
	t.Helper()
	b, err := NewBuilder(kernel.MustNew(kernel.Gaussian, h), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func linePoints(n int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		x[i] = []float64{float64(i)}
	}
	return x
}

func TestFromWeightsValidation(t *testing.T) {
	rect := sparse.NewCOO(2, 3).ToCSR()
	if _, err := FromWeights(rect); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam for non-square, got %v", err)
	}
	coo := sparse.NewCOO(2, 2)
	_ = coo.Add(0, 1, 1)
	if _, err := FromWeights(coo.ToCSR()); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam for asymmetric, got %v", err)
	}
}

// TestFromWeightsRelativeSymmetryTolerance: the symmetry check scales with
// the largest entry, accepting a one-ulp mismatch near 1e6 and rejecting a
// 50% mismatch among tiny weights.
func TestFromWeightsRelativeSymmetryTolerance(t *testing.T) {
	pair := func(wij, wji float64) *sparse.CSR {
		w, err := sparse.NewCSR(2, 2, []int{0, 1, 2}, []int{1, 0}, []float64{wij, wji})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	if _, err := FromWeights(pair(1e6, math.Nextafter(1e6, 2e6))); err != nil {
		t.Errorf("one-ulp mismatch near 1e6 rejected: %v", err)
	}
	if _, err := FromWeights(pair(1e-14, 2e-14)); !errors.Is(err, ErrParam) {
		t.Errorf("want ErrParam for 1e-14 vs 2e-14, got %v", err)
	}
}

func TestFromDenseWeights(t *testing.T) {
	w, _ := mat.NewDenseData(2, 2, []float64{0, 0.5, 0.5, 0})
	g, err := FromDenseWeights(w)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.Weight(0, 1) != 0.5 {
		t.Fatal("graph content wrong")
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(nil); !errors.Is(err, ErrParam) {
		t.Fatalf("nil kernel: want ErrParam, got %v", err)
	}
	k := kernel.MustNew(kernel.Gaussian, 1)
	if _, err := NewBuilder(k, WithKNN(-1)); !errors.Is(err, ErrParam) {
		t.Fatalf("negative knn: want ErrParam, got %v", err)
	}
}

func TestBuildEmptyErrors(t *testing.T) {
	b := gaussianBuilder(t, 1)
	if _, err := b.Build(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestBuildFullGraphWeights(t *testing.T) {
	b := gaussianBuilder(t, 1)
	g, err := b.Build([][]float64{{0}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.Weight(0, 1), math.Exp(-1); math.Abs(got-want) > 1e-15 {
		t.Fatalf("w01 = %v, want %v", got, want)
	}
	if got, want := g.Weight(0, 2), math.Exp(-4); math.Abs(got-want) > 1e-15 {
		t.Fatalf("w02 = %v, want %v", got, want)
	}
	if g.Weight(1, 0) != g.Weight(0, 1) {
		t.Fatal("graph must be symmetric")
	}
	if g.Weight(0, 0) != 0 {
		t.Fatal("self-loops dropped by default")
	}
}

func TestBuildKNNGraph(t *testing.T) {
	b := gaussianBuilder(t, 1, WithKNN(1))
	g, err := b.Build(linePoints(4))
	if err != nil {
		t.Fatal(err)
	}
	// Each node picks its nearest neighbour; symmetrized this yields the
	// chain edges {0,1}, {1,2}, {2,3} at most. Node 0 picks 1, 1 picks 0 or 2,
	// 2 picks 1 or 3, 3 picks 2.
	if g.Weight(0, 3) != 0 {
		t.Fatal("kNN graph must not contain the far edge 0-3")
	}
	if g.Weight(0, 1) == 0 {
		t.Fatal("kNN graph must contain nearest edge 0-1")
	}
}

func TestBuildCompactKernelSparsifies(t *testing.T) {
	// Uniform kernel with h=1: only |xi−xj| <= 1 gets positive weight.
	b, err := NewBuilder(kernel.MustNew(kernel.Uniform, 1))
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build(linePoints(5))
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 4 {
		t.Fatalf("edges = %d, want 4 (chain)", g.EdgeCount())
	}
}

func TestBuildFromDist2Validation(t *testing.T) {
	b := gaussianBuilder(t, 1)
	if _, err := b.BuildFromDist2(2, []float64{0}); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
}

func TestBuildFromDist2MatchesBuild(t *testing.T) {
	b := gaussianBuilder(t, 0.8)
	x := [][]float64{{0, 1}, {1, 0}, {0.5, 0.5}}
	g1, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := kernel.PairwiseDist2(x)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := b.BuildFromDist2(3, d2)
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Weights().ToDense().Equal(g2.Weights().ToDense(), 1e-15) {
		t.Fatal("Build and BuildFromDist2 disagree")
	}
}

func TestDegreesAndSummary(t *testing.T) {
	b := gaussianBuilder(t, 1, WithKNN(1))
	g, _ := b.Build(linePoints(3)) // chain 0-1-2
	deg := g.Degrees()
	w := math.Exp(-1)
	if math.Abs(deg[1]-2*w) > 1e-15 || math.Abs(deg[0]-w) > 1e-15 {
		t.Fatalf("degrees = %v", deg)
	}
	s := g.Summary()
	if s.Nodes != 3 || s.Edges != 2 || s.Components != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.MinDegree > s.MeanDegree || s.MeanDegree > s.MaxDegree {
		t.Fatalf("degree stats inconsistent: %+v", s)
	}
}

func TestUnnormalizedLaplacian(t *testing.T) {
	// Chain of 3 with unit weights.
	coo := sparse.NewCOO(3, 3)
	_ = coo.AddSym(0, 1, 1)
	_ = coo.AddSym(1, 2, 1)
	g, err := FromWeights(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	l, err := g.Laplacian(Unnormalized)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mat.NewDenseData(3, 3, []float64{
		1, -1, 0,
		-1, 2, -1,
		0, -1, 1,
	})
	if !l.ToDense().Equal(want, 1e-15) {
		t.Fatalf("L = %v", l.ToDense())
	}
}

// withUnitLoops returns g with w_ii = 1 on every node, the diagonal of the
// paper's RBF W, wrapped through FromWeights (Build never stores one).
func withUnitLoops(t *testing.T, g *Graph) *Graph {
	t.Helper()
	n := g.N()
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		cols, vals := g.Weights().RowNNZ(i)
		for k, j := range cols {
			if err := coo.Add(i, j, vals[k]); err != nil {
				t.Fatal(err)
			}
		}
		if err := coo.Add(i, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	lg, err := FromWeights(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

func TestLaplacianSelfLoopsCancel(t *testing.T) {
	// L = D − W must be identical with and without self-loops.
	g2, _ := gaussianBuilder(t, 1).Build(linePoints(4))
	g1 := withUnitLoops(t, g2)
	if g1.Weight(0, 0) != 1 {
		t.Fatalf("w00 = %v, want 1", g1.Weight(0, 0))
	}
	l1, err := g1.Laplacian(Unnormalized)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := g2.Laplacian(Unnormalized)
	if err != nil {
		t.Fatal(err)
	}
	if !l1.ToDense().Equal(l2.ToDense(), 1e-14) {
		t.Fatal("self-loops must cancel in D−W")
	}
}

func TestLaplacianRowSumsZero(t *testing.T) {
	b := gaussianBuilder(t, 1)
	g, _ := b.Build(linePoints(6))
	l, err := g.Laplacian(Unnormalized)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range l.RowSums() {
		if math.Abs(s) > 1e-12 {
			t.Fatalf("row %d sums to %g, want 0", i, s)
		}
	}
}

func TestLaplacianPSDQuadraticForm(t *testing.T) {
	// fᵀLf = Σ w_ij (f_i−f_j)² / ... — must be nonnegative for any f.
	rng := rand.New(rand.NewSource(61))
	b := gaussianBuilder(t, 1)
	x := make([][]float64, 8)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	g, _ := b.Build(x)
	l, err := g.Laplacian(Unnormalized)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		f := make([]float64, 8)
		for i := range f {
			f[i] = rng.NormFloat64()
		}
		lf, err := l.MulVec(f)
		if err != nil {
			t.Fatal(err)
		}
		if q := mat.Dot(f, lf); q < -1e-12 {
			t.Fatalf("fᵀLf = %g < 0", q)
		}
	}
}

func TestLaplacianQuadraticFormMatchesEdgeSum(t *testing.T) {
	// 2 fᵀ L f = Σ_ij w_ij (f_i − f_j)² for symmetric W; equivalently
	// fᵀLf = Σ_{edges} w_ij (f_i−f_j)².
	rng := rand.New(rand.NewSource(62))
	b := gaussianBuilder(t, 1.2)
	x := make([][]float64, 7)
	for i := range x {
		x[i] = []float64{rng.NormFloat64()}
	}
	g, _ := b.Build(x)
	l, _ := g.Laplacian(Unnormalized)
	f := make([]float64, 7)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	lf, _ := l.MulVec(f)
	got := mat.Dot(f, lf)
	var want float64
	for i := 0; i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			d := f[i] - f[j]
			want += g.Weight(i, j) * d * d
		}
	}
	if math.Abs(got-want) > 1e-10*math.Max(1, math.Abs(want)) {
		t.Fatalf("fᵀLf = %v, edge sum = %v", got, want)
	}
}

func TestNormalizedLaplacians(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	_ = coo.AddSym(0, 1, 2)
	g, err := FromWeights(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	lsym, err := g.Laplacian(SymNormalized)
	if err != nil {
		t.Fatal(err)
	}
	// d0 = d1 = 2 ⇒ L_sym = [[1,-1],[-1,1]].
	want, _ := mat.NewDenseData(2, 2, []float64{1, -1, -1, 1})
	if !lsym.ToDense().Equal(want, 1e-15) {
		t.Fatalf("L_sym = %v", lsym.ToDense())
	}
	lrw, err := g.Laplacian(RandomWalk)
	if err != nil {
		t.Fatal(err)
	}
	if !lrw.ToDense().Equal(want, 1e-15) {
		t.Fatalf("L_rw = %v", lrw.ToDense())
	}
}

func TestLaplacianIsolatedNode(t *testing.T) {
	coo := sparse.NewCOO(3, 3)
	_ = coo.AddSym(0, 1, 1)
	g, _ := FromWeights(coo.ToCSR())
	l, err := g.Laplacian(Unnormalized)
	if err != nil {
		t.Fatal(err)
	}
	if l.At(2, 2) != 0 {
		t.Fatal("isolated node must have zero Laplacian row")
	}
	lsym, err := g.Laplacian(SymNormalized)
	if err != nil {
		t.Fatal(err)
	}
	if lsym.At(2, 2) != 1 {
		t.Fatal("normalized Laplacian convention: identity row for isolated node")
	}
}

func TestLaplacianUnknownKind(t *testing.T) {
	g, _ := FromWeights(sparse.NewCOO(2, 2).ToCSR())
	if _, err := g.Laplacian(LaplacianKind(42)); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
}

func TestComponents(t *testing.T) {
	coo := sparse.NewCOO(5, 5)
	_ = coo.AddSym(0, 1, 1)
	_ = coo.AddSym(3, 4, 1)
	g, _ := FromWeights(coo.ToCSR())
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 2 || comps[0][0] != 0 || comps[0][1] != 1 {
		t.Fatalf("first component = %v", comps[0])
	}
	if len(comps[1]) != 1 || comps[1][0] != 2 {
		t.Fatalf("second component = %v", comps[1])
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestIsConnected(t *testing.T) {
	b := gaussianBuilder(t, 1)
	g, _ := b.Build(linePoints(4)) // full Gaussian graph: connected
	if !g.IsConnected() {
		t.Fatal("full Gaussian graph must be connected")
	}
	empty, _ := FromWeights(sparse.NewCOO(0, 0).ToCSR())
	if empty.IsConnected() {
		t.Fatal("empty graph must not be connected")
	}
}

func TestNumberOfZeroLaplacianEigenvaluesEqualsComponents(t *testing.T) {
	// Spectral graph theory: multiplicity of eigenvalue 0 of L = number of
	// connected components. Cross-validates Components against mat.EigenSym.
	coo := sparse.NewCOO(6, 6)
	_ = coo.AddSym(0, 1, 1)
	_ = coo.AddSym(1, 2, 0.5)
	_ = coo.AddSym(3, 4, 2)
	// node 5 isolated. Components: {0,1,2}, {3,4}, {5} = 3.
	g, _ := FromWeights(coo.ToCSR())
	l, _ := g.Laplacian(Unnormalized)
	eig, err := mat.NewEigenSym(l.ToDense(), 0)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range eig.Values {
		if math.Abs(v) < 1e-10 {
			zeros++
		}
	}
	if zeros != len(g.Components()) {
		t.Fatalf("zero eigenvalues %d != components %d", zeros, len(g.Components()))
	}
}

// Property: for random point clouds, the built graph is symmetric, weights
// lie in [0,1], and the unnormalized Laplacian has zero row sums.
func TestBuildInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		x := make([][]float64, n)
		for i := range x {
			x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		b, err := NewBuilder(kernel.MustNew(kernel.Gaussian, 0.5+rng.Float64()))
		if err != nil {
			return false
		}
		g, err := b.Build(x)
		if err != nil {
			return false
		}
		w := g.Weights()
		if !w.IsSymmetric(1e-14) {
			return false
		}
		d := w.ToDense()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := d.At(i, j)
				if v < 0 || v > 1 {
					return false
				}
			}
		}
		l, err := g.Laplacian(Unnormalized)
		if err != nil {
			return false
		}
		for _, s := range l.RowSums() {
			if math.Abs(s) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestComponentLabelsMatchSearch checks the shared labelling against a
// breadth-first search over positive off-diagonal weights, in both edge
// directions, on random sparse graphs: components are numbered by their
// smallest node, Components and IsConnected agree with it, and callers on
// several goroutines get one labelling, the same slice.
func TestComponentLabelsMatchSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		coo := sparse.NewCOO(n, n)
		for e := rng.Intn(n + 1); e > 0; e-- {
			i, j := rng.Intn(n), rng.Intn(n)
			w := 1.0
			if rng.Intn(5) == 0 {
				w = 0 // a stored zero joins nothing
			}
			if err := coo.AddSym(i, j, w); err != nil {
				t.Fatal(err)
			}
		}
		g, err := FromWeights(coo.ToCSR())
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, n)
		for i := range want {
			want[i] = -1
		}
		count := 0
		for s := 0; s < n; s++ {
			if want[s] >= 0 {
				continue
			}
			want[s] = count
			queue := []int{s}
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for v := 0; v < n; v++ {
					if want[v] < 0 && v != u && (g.Weight(u, v) > 0 || g.Weight(v, u) > 0) {
						want[v] = count
						queue = append(queue, v)
					}
				}
			}
			count++
		}
		var wg sync.WaitGroup
		firsts := make([]*int, 4)
		for k := range firsts {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				l, _ := g.ComponentLabels()
				firsts[k] = &l[0]
			}(k)
		}
		wg.Wait()
		label, got := g.ComponentLabels()
		for _, f := range firsts {
			if f != &label[0] {
				t.Fatalf("trial %d: callers got different labellings", trial)
			}
		}
		if got != count {
			t.Fatalf("trial %d: %d components, want %d", trial, got, count)
		}
		for i := range want {
			if label[i] != want[i] {
				t.Fatalf("trial %d: node %d labelled %d, want %d", trial, i, label[i], want[i])
			}
		}
		comps := g.Components()
		if len(comps) != count || g.IsConnected() != (count == 1) {
			t.Fatalf("trial %d: %d Components, IsConnected %v, for %d components", trial, len(comps), g.IsConnected(), count)
		}
		for c, comp := range comps {
			for k, v := range comp {
				if want[v] != c || (k > 0 && comp[k-1] >= v) {
					t.Fatalf("trial %d: component %d = %v", trial, c, comp)
				}
			}
		}
	}
}
