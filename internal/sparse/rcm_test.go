package sparse

import (
	"math"
	"testing"
)

// rcmTestGraphs builds a family of symmetric SPD test systems with varied
// structure: a path, a 2-D grid, a disconnected two-cluster graph, and a
// pseudo-random geometric graph. All are Laplacian + diagonal shifts, so
// every one is an M-matrix with positive diagonal.
func rcmTestGraphs(t *testing.T) map[string]*CSR {
	t.Helper()
	out := map[string]*CSR{}

	// Path graph, n=64: bandwidth 1 already, RCM must not worsen it.
	{
		n := 64
		coo := NewCOO(n, n)
		for i := 0; i < n; i++ {
			mustAdd(t, coo, i, i, 2.5)
			if i+1 < n {
				mustAddSym(t, coo, i, i+1, -1)
			}
		}
		out["path"] = coo.ToCSR()
	}

	// 8x8 grid with natural ordering: bandwidth 8; RCM should not increase.
	{
		side := 8
		n := side * side
		coo := NewCOO(n, n)
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				i := r*side + c
				mustAdd(t, coo, i, i, 4.5)
				if c+1 < side {
					mustAddSym(t, coo, i, i+1, -1)
				}
				if r+1 < side {
					mustAddSym(t, coo, i, i+side, -1)
				}
			}
		}
		out["grid"] = coo.ToCSR()
	}

	// Two disconnected cliques bridged by nothing: exercises the
	// per-component loop.
	{
		n := 20
		coo := NewCOO(n, n)
		for i := 0; i < n; i++ {
			mustAdd(t, coo, i, i, 12)
		}
		for i := 0; i < 10; i++ {
			for j := i + 1; j < 10; j++ {
				mustAddSym(t, coo, i, j, -1)
				mustAddSym(t, coo, i+10, j+10, -1)
			}
		}
		out["two-cliques"] = coo.ToCSR()
	}

	// Pseudo-random sparse symmetric system via a fixed LCG: scrambled
	// ordering, so RCM has real work to do.
	{
		n := 120
		coo := NewCOO(n, n)
		state := uint64(42)
		next := func() uint64 {
			state = state*6364136223846793005 + 1442695040888963407
			return state >> 33
		}
		deg := make([]float64, n)
		type edge struct{ i, j int }
		seen := map[edge]bool{}
		for e := 0; e < 4*n; e++ {
			i := int(next() % uint64(n))
			j := int(next() % uint64(n))
			if i == j {
				continue
			}
			if i > j {
				i, j = j, i
			}
			if seen[edge{i, j}] {
				continue
			}
			seen[edge{i, j}] = true
			mustAddSym(t, coo, i, j, -1)
			deg[i]++
			deg[j]++
		}
		for i := 0; i < n; i++ {
			mustAdd(t, coo, i, i, deg[i]+1.5)
		}
		out["random"] = coo.ToCSR()
	}
	return out
}

func mustAdd(t *testing.T, coo *COO, i, j int, v float64) {
	t.Helper()
	if err := coo.Add(i, j, v); err != nil {
		t.Fatal(err)
	}
}

func mustAddSym(t *testing.T, coo *COO, i, j int, v float64) {
	t.Helper()
	if err := coo.AddSym(i, j, v); err != nil {
		t.Fatal(err)
	}
}

func TestRCMProducesValidPermutation(t *testing.T) {
	for name, a := range rcmTestGraphs(t) {
		perm, err := RCM(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !validPerm(perm, a.Rows()) {
			t.Fatalf("%s: RCM returned an invalid permutation %v", name, perm)
		}
		// Deterministic: same matrix, same permutation.
		again, err := RCM(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range perm {
			if perm[i] != again[i] {
				t.Fatalf("%s: RCM not deterministic at %d", name, i)
			}
		}
	}
}

func TestRCMBandwidthNeverIncreases(t *testing.T) {
	for name, a := range rcmTestGraphs(t) {
		perm, err := RCM(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pa, err := a.Permute(perm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, orig := pa.Bandwidth(), a.Bandwidth(); got > orig {
			t.Fatalf("%s: RCM increased bandwidth %d -> %d", name, orig, got)
		}
	}
}

func TestPermuteInverseRoundTrip(t *testing.T) {
	for name, a := range rcmTestGraphs(t) {
		perm, err := RCM(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pa, err := a.Permute(perm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := pa.Permute(InvertPerm(perm))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := a.Rows()
		for i := 0; i < n; i++ {
			ci, vi := a.RowNNZ(i)
			cj, vj := back.RowNNZ(i)
			if len(ci) != len(cj) {
				t.Fatalf("%s: row %d nnz %d -> %d after round trip", name, i, len(ci), len(cj))
			}
			for k := range ci {
				if ci[k] != cj[k] || vi[k] != vj[k] {
					t.Fatalf("%s: row %d entry %d differs after round trip", name, i, k)
				}
			}
		}
	}
}

// TestPermutedSolveMatchesOriginal solves A x = b directly and as
// P A Pᵀ y = P b followed by un-permutation, and checks the two agree: the
// reordered solve path must change performance only, never the answer
// (beyond iterative tolerance).
func TestPermutedSolveMatchesOriginal(t *testing.T) {
	for name, a := range rcmTestGraphs(t) {
		n := a.Rows()
		b := make([]float64, n)
		for i := range b {
			b[i] = math.Sin(float64(3*i + 1))
		}
		x, _, err := PCG(a, b, PCGOptions{CGOptions: CGOptions{Tol: 1e-12}, M: newDiagScale(a)})
		if err != nil {
			t.Fatalf("%s: direct solve: %v", name, err)
		}

		perm, err := RCM(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pa, err := a.Permute(perm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pb := make([]float64, n)
		PermuteVecTo(pb, b, perm)
		py, _, err := PCG(pa, pb, PCGOptions{CGOptions: CGOptions{Tol: 1e-12}, M: newDiagScale(pa)})
		if err != nil {
			t.Fatalf("%s: permuted solve: %v", name, err)
		}
		y := make([]float64, n)
		UnpermuteVecTo(y, py, perm)

		for i := range x {
			if d := math.Abs(x[i] - y[i]); d > 1e-8*(1+math.Abs(x[i])) {
				t.Fatalf("%s: solutions differ at %d: %g vs %g", name, i, x[i], y[i])
			}
		}
	}
}

func TestPermuteVecRoundTrip(t *testing.T) {
	perm := []int{3, 1, 4, 0, 2}
	src := []float64{10, 11, 12, 13, 14}
	fwd := make([]float64, 5)
	back := make([]float64, 5)
	PermuteVecTo(fwd, src, perm)
	UnpermuteVecTo(back, fwd, perm)
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("round trip broke at %d: %g", i, back[i])
		}
	}
	if fwd[0] != 13 || fwd[4] != 12 {
		t.Fatalf("PermuteVecTo wrong: %v", fwd)
	}
}

func TestBandwidth(t *testing.T) {
	coo := NewCOO(4, 4)
	mustAdd(t, coo, 0, 0, 1)
	mustAdd(t, coo, 3, 3, 1)
	if bw := coo.ToCSR().Bandwidth(); bw != 0 {
		t.Fatalf("diagonal matrix bandwidth = %d", bw)
	}
	mustAddSym(t, coo, 0, 3, -1)
	if bw := coo.ToCSR().Bandwidth(); bw != 3 {
		t.Fatalf("bandwidth = %d, want 3", bw)
	}
}

func TestRCMRejectsNonSquare(t *testing.T) {
	coo := NewCOO(3, 4)
	mustAdd(t, coo, 0, 0, 1)
	if _, err := RCM(coo.ToCSR()); err == nil {
		t.Fatal("RCM accepted a non-square matrix")
	}
}
