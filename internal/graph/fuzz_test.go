package graph

import (
	"strings"
	"testing"
)

// FuzzReadEdgeList hardens the edge-list parser: arbitrary input must never
// panic, and any successfully parsed graph must satisfy the package
// invariants (symmetry, consistent counts) and round-trip through
// WriteEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("nodes 3\n0 1 0.5\nloop 2 1\n")
	f.Add("nodes 0\n")
	f.Add("nodes 2\n# comment\n\n0 1 1e-3\n")
	f.Add("nodes 2\n0 1 NaN\n")
	f.Add("nodes -5\n")
	f.Add("vertices 2\n")
	// A repeated edge: both mirrored entries must sum in the same order.
	f.Add("nodes 2\n0 1 0.1\n0 1 0.1\n0 1 0.2\n0 1 1\n0 1 3\n0 1 1\n0 1 0.2\n")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ReadEdgeList(strings.NewReader(src))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if !g.Weights().IsSymmetric(0) {
			t.Fatal("parsed graph not symmetric")
		}
		var sb strings.Builder
		if err := g.WriteEdgeList(&sb); err != nil {
			t.Fatalf("write back: %v", err)
		}
		back, err := ReadEdgeList(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if back.N() != g.N() || back.EdgeCount() != g.EdgeCount() {
			t.Fatal("round trip changed the graph")
		}
	})
}
