package graph

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/randx"
)

func TestEdgeListRoundTrip(t *testing.T) {
	rng := randx.New(701)
	x := make([][]float64, 9)
	for i := range x {
		x[i] = []float64{rng.Norm(), rng.Norm()}
	}
	b, err := NewBuilder(kernel.MustNew(kernel.Gaussian, 1))
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	g = withUnitLoops(t, g)
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Weights().ToDense().Equal(g.Weights().ToDense(), 1e-15) {
		t.Fatal("round trip changed the graph")
	}
}

func TestEdgeListRoundTripSparse(t *testing.T) {
	b, err := NewBuilder(kernel.MustNew(kernel.Uniform, 1))
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build(linePoints(6))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "nodes 6\n") {
		t.Fatalf("header: %s", sb.String())
	}
	back, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.EdgeCount() != g.EdgeCount() {
		t.Fatal("edge count changed")
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	src := "nodes 3\n# comment\n\n0 1 0.5\nloop 2 1\n"
	g, err := ReadEdgeList(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 1) != 0.5 || g.Weight(1, 0) != 0.5 || g.Weight(2, 2) != 1 {
		t.Fatal("parsed weights wrong")
	}
}

// TestReadEdgeListRepeatedEdgeSymmetric: a repeated edge's weights sum in
// line order into both mirrored entries.
func TestReadEdgeListRepeatedEdgeSymmetric(t *testing.T) {
	ws := []float64{0.1, 0.1, 0.2, 1, 3, 1, 0.2}
	var sb strings.Builder
	sb.WriteString("nodes 2\n")
	var want float64
	for _, w := range ws {
		fmt.Fprintf(&sb, "0 1 %v\n", w)
		want += w
	}
	g, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	w01, w10 := g.Weight(0, 1), g.Weight(1, 0)
	if math.Float64bits(w01) != math.Float64bits(w10) || w01 != want {
		t.Fatalf("w01 = %v, w10 = %v, want both %v", w01, w10, want)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"bad header", "vertices 3\n"},
		{"negative nodes", "nodes -1\n"},
		{"bad edge fields", "nodes 2\n0 1\n"},
		{"non-numeric", "nodes 2\n0 x 1\n"},
		{"self edge", "nodes 2\n1 1 0.5\n"},
		{"out of range", "nodes 2\n0 5 0.5\n"},
		{"bad loop", "nodes 2\nloop x 1\n"},
		// Node counts past MaxEdgeListNodes once reached the CSR
		// allocation and panicked there (makeslice: len out of range).
		{"huge nodes, leading zero", "nodes 01000000000000000000A000\n"},
		{"huge nodes", "nodes 1000000000000000000\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.src)); err == nil {
				t.Fatal("want error")
			}
		})
	}
	// Specific sentinel for recognizable cases.
	for _, src := range []string{"nodes 2\n0 1\n", "nodes 1000000000000000000\n"} {
		if _, err := ReadEdgeList(strings.NewReader(src)); !errors.Is(err, ErrParam) {
			t.Fatalf("%q: want ErrParam, got %v", src, err)
		}
	}
}
