package core

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/sparse"
)

// kernelGaussian returns a Gaussian kernel with bandwidth h.
func kernelGaussian(t *testing.T, h float64) *kernel.K {
	t.Helper()
	return kernel.MustNew(kernel.Gaussian, h)
}

// fullGraph builds a full Gaussian graph over 1-D points.
func fullGraph(t *testing.T, pts []float64, h float64) *graph.Graph {
	t.Helper()
	x := make([][]float64, len(pts))
	for i, v := range pts {
		x[i] = []float64{v}
	}
	b, err := graph.NewBuilder(kernel.MustNew(kernel.Gaussian, h))
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// chainGraph builds an explicit unit-weight chain over n nodes.
func chainGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	coo := sparse.NewCOO(n, n)
	for i := 0; i+1 < n; i++ {
		if err := coo.AddSym(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := graph.FromWeights(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newTwoComponentGraph builds a 4-node graph with components {0,1}, {2,3}.
func newTwoComponentGraph(t *testing.T) *graph.Graph {
	t.Helper()
	coo := sparse.NewCOO(4, 4)
	if err := coo.AddSym(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := coo.AddSym(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromWeights(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewProblemValidation(t *testing.T) {
	g := chainGraph(t, 4)
	tests := []struct {
		name    string
		labeled []int
		y       []float64
	}{
		{name: "empty labeled", labeled: nil, y: nil},
		{name: "length mismatch", labeled: []int{0}, y: []float64{1, 2}},
		{name: "all labeled", labeled: []int{0, 1, 2, 3}, y: []float64{1, 2, 3, 4}},
		{name: "out of range", labeled: []int{0, 9}, y: []float64{1, 2}},
		{name: "negative index", labeled: []int{-1}, y: []float64{1}},
		{name: "duplicate", labeled: []int{1, 1}, y: []float64{1, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewProblem(g, tt.labeled, tt.y); !errors.Is(err, ErrParam) {
				t.Fatalf("want ErrParam, got %v", err)
			}
		})
	}
	if _, err := NewProblem(nil, []int{0}, []float64{1}); !errors.Is(err, ErrParam) {
		t.Fatal("nil graph must error")
	}
}

func TestNewProblemAccessors(t *testing.T) {
	g := chainGraph(t, 5)
	p, err := NewProblem(g, []int{3, 0}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 2 || p.M() != 3 {
		t.Fatalf("N=%d M=%d", p.N(), p.M())
	}
	lab := p.Labeled()
	if lab[0] != 3 || lab[1] != 0 {
		t.Fatalf("Labeled = %v (order must be preserved)", lab)
	}
	unl := p.Unlabeled()
	if len(unl) != 3 || unl[0] != 1 || unl[1] != 2 || unl[2] != 4 {
		t.Fatalf("Unlabeled = %v", unl)
	}
	y := p.Y()
	if y[0] != 1 || y[1] != 0 {
		t.Fatalf("Y = %v", y)
	}
	if !p.IsLabeled(0) || p.IsLabeled(1) || p.IsLabeled(-1) || p.IsLabeled(99) {
		t.Fatal("IsLabeled wrong")
	}
	if p.Graph() != g {
		t.Fatal("Graph accessor wrong")
	}
}

func TestProblemCopiesInputs(t *testing.T) {
	g := chainGraph(t, 3)
	labeled := []int{0}
	y := []float64{1}
	p, err := NewProblem(g, labeled, y)
	if err != nil {
		t.Fatal(err)
	}
	labeled[0] = 2
	y[0] = 99
	if p.Labeled()[0] != 0 || p.Y()[0] != 1 {
		t.Fatal("NewProblem must copy its slice arguments")
	}
	// Returned slices are copies too.
	p.Labeled()[0] = 5
	p.Y()[0] = 5
	p.Unlabeled()[0] = 5
	if p.Labeled()[0] != 0 || p.Y()[0] != 1 || p.Unlabeled()[0] != 1 {
		t.Fatal("accessors must return copies")
	}
}

func TestNewProblemLabeledFirst(t *testing.T) {
	g := chainGraph(t, 4)
	p, err := NewProblemLabeledFirst(g, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	lab := p.Labeled()
	if lab[0] != 0 || lab[1] != 1 {
		t.Fatalf("Labeled = %v", lab)
	}
	unl := p.Unlabeled()
	if unl[0] != 2 || unl[1] != 3 {
		t.Fatalf("Unlabeled = %v", unl)
	}
}

func TestCheckCoverageIsolatedComponent(t *testing.T) {
	// Two components {0,1} and {2,3}; only component one has a label.
	coo := sparse.NewCOO(4, 4)
	_ = coo.AddSym(0, 1, 1)
	_ = coo.AddSym(2, 3, 1)
	g, err := graph.FromWeights(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(g, []int{0}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveHard(p); !errors.Is(err, ErrIsolated) {
		t.Fatalf("want ErrIsolated, got %v", err)
	}
}

// TestCheckCoverageNamesFirstUncoveredComponent: with interleaved
// components {0,3}, {1,4}, {2,5} and only node 0 labeled, two components
// are uncovered, and the error names the one whose smallest node comes
// first, by that node. A graph whose every component holds a label passes.
func TestCheckCoverageNamesFirstUncoveredComponent(t *testing.T) {
	coo := sparse.NewCOO(6, 6)
	_ = coo.AddSym(0, 3, 1)
	_ = coo.AddSym(4, 1, 1)
	_ = coo.AddSym(5, 2, 1)
	g, err := graph.FromWeights(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		labeled []int
		want    string
	}{
		{[]int{0}, "core: component starting at node 1: " + ErrIsolated.Error()},
		{[]int{4}, "core: component starting at node 0: " + ErrIsolated.Error()},
		{[]int{0, 1}, "core: component starting at node 2: " + ErrIsolated.Error()},
		{[]int{3, 1, 5}, ""},
	} {
		p, err := NewProblem(g, c.labeled, make([]float64, len(c.labeled)))
		if err != nil {
			t.Fatal(err)
		}
		err = p.checkCoverage()
		if c.want == "" {
			if err != nil {
				t.Fatalf("labeled %v: %v", c.labeled, err)
			}
			continue
		}
		if !errors.Is(err, ErrIsolated) || err.Error() != c.want {
			t.Fatalf("labeled %v: err %v, want %q", c.labeled, err, c.want)
		}
	}
}
