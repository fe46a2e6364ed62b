package cluster

import (
	"errors"
	"testing"

	"repro/internal/sparse"
)

func TestChunkQuantum(t *testing.T) {
	cases := []struct{ m, want int }{
		{0, 1}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}, {6400, 100},
	}
	for _, c := range cases {
		if got := ChunkQuantum(c.m); got != c.want {
			t.Errorf("ChunkQuantum(%d) = %d, want %d", c.m, got, c.want)
		}
	}
	// The induced chunk count never exceeds the target.
	for _, m := range []int{1, 2, 63, 64, 65, 1000, 1 << 20} {
		q := ChunkQuantum(m)
		if chunks := (m + q - 1) / q; chunks > planTargetChunks {
			t.Errorf("m=%d: %d chunks exceed target %d", m, chunks, planTargetChunks)
		}
	}
}

func TestNewPlanStructure(t *testing.T) {
	_, sys := testSystem(t, 41, 90, 20)
	m := sys.M()
	for _, shards := range []int{1, 2, 4, 8} {
		plan, err := NewPlan(sys.W, shards, true)
		if err != nil {
			t.Fatal(err)
		}
		if plan.M != m || plan.Quantum != ChunkQuantum(m) {
			t.Fatalf("shards=%d: plan geometry %d/%d", shards, plan.M, plan.Quantum)
		}
		// Permutation is a bijection.
		seen := make([]bool, m)
		for i, old := range plan.Perm {
			if plan.Inv[old] != i || seen[old] {
				t.Fatalf("shards=%d: perm not a bijection", shards)
			}
			seen[old] = true
		}
		// Shards: contiguous, chunk-aligned, covering, nonempty.
		prev := 0
		prevChunk := 0
		for s, sh := range plan.Shards {
			if sh.Lo != prev || sh.Len() < 1 {
				t.Fatalf("shards=%d: shard %d not contiguous: %+v", shards, s, sh)
			}
			if sh.Lo%plan.Quantum != 0 {
				t.Fatalf("shards=%d: shard %d not chunk-aligned", shards, s)
			}
			if sh.ChunkLo != prevChunk || sh.ChunkHi <= sh.ChunkLo {
				t.Fatalf("shards=%d: shard %d chunk range [%d,%d)", shards, s, sh.ChunkLo, sh.ChunkHi)
			}
			if sh.Lo != sh.ChunkLo*plan.Quantum {
				t.Fatalf("shards=%d: shard %d Lo/ChunkLo mismatch", shards, s)
			}
			prev = sh.Hi
			prevChunk = sh.ChunkHi
		}
		if prev != m || prevChunk != plan.Chunks {
			t.Fatalf("shards=%d: shards cover %d rows / %d chunks", shards, prev, prevChunk)
		}
	}
}

func TestNewPlanHaloBoundaryBruteForce(t *testing.T) {
	_, sys := testSystem(t, 43, 60, 15)
	plan, err := NewPlan(sys.W, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	m := plan.M
	haloTotal := 0
	for s := range plan.Shards {
		sh := &plan.Shards[s]
		// Brute-force external read set of the block, in permuted space.
		want := map[int]bool{}
		for nr := sh.Lo; nr < sh.Hi; nr++ {
			cols, _ := sys.W.RowNNZ(plan.Perm[nr])
			for _, j := range cols {
				nj := plan.Inv[j]
				if nj < sh.Lo || nj >= sh.Hi {
					want[nj] = true
				}
			}
		}
		if len(want) != len(sh.Halo) {
			t.Fatalf("shard %d: halo size %d, want %d", s, len(sh.Halo), len(want))
		}
		for i, h := range sh.Halo {
			if !want[h] {
				t.Fatalf("shard %d: spurious halo index %d", s, h)
			}
			if i > 0 && h <= sh.Halo[i-1] {
				t.Fatalf("shard %d: halo not strictly ascending", s)
			}
		}
		haloTotal += len(sh.Halo)
	}
	if plan.Stats.HaloTotal != haloTotal {
		t.Fatalf("HaloTotal = %d, want %d", plan.Stats.HaloTotal, haloTotal)
	}
	// Boundary of shard s = union over other shards' halos restricted to s.
	for s := range plan.Shards {
		sh := &plan.Shards[s]
		want := map[int]bool{}
		for o := range plan.Shards {
			if o == s {
				continue
			}
			for _, h := range plan.Shards[o].Halo {
				if h >= sh.Lo && h < sh.Hi {
					want[h] = true
				}
			}
		}
		if len(want) != len(sh.Boundary) {
			t.Fatalf("shard %d: boundary size %d, want %d", s, len(sh.Boundary), len(want))
		}
		for i, g := range sh.Boundary {
			if !want[g] {
				t.Fatalf("shard %d: spurious boundary index %d", s, g)
			}
			if i > 0 && g <= sh.Boundary[i-1] {
				t.Fatalf("shard %d: boundary not strictly ascending", s)
			}
		}
	}
	if plan.Stats.NNZ != sys.W.NNZ() || plan.Stats.EdgeCut < 0 {
		t.Fatalf("stats: %+v", plan.Stats)
	}
	if !plan.Stats.RCM {
		t.Fatal("RCM flag not recorded")
	}
	_ = m
}

func TestNewPlanClampsShards(t *testing.T) {
	_, sys := testSystem(t, 45, 14, 6)
	// m is small so quantum = 1 and the chunk count is m; more shards than
	// chunks must clamp.
	plan, err := NewPlan(sys.W, 50, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != sys.M() {
		t.Fatalf("got %d shards, want %d", len(plan.Shards), sys.M())
	}
	if plan.Stats.RCM {
		t.Fatal("RCM flag set despite NoRCM")
	}
	if plan.Stats.NaiveEdgeCut != plan.Stats.EdgeCut {
		t.Fatal("identity plan must have NaiveEdgeCut == EdgeCut")
	}
}

func TestNewPlanErrors(t *testing.T) {
	if _, err := NewPlan(nil, 2, true); !errors.Is(err, ErrParam) {
		t.Fatal("nil matrix must error")
	}
	rect, err := sparse.NewCSR(2, 3, []int{0, 0, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan(rect, 2, true); !errors.Is(err, ErrParam) {
		t.Fatal("non-square matrix must error")
	}
	_, sys := testSystem(t, 47, 10, 4)
	if _, err := NewPlan(sys.W, 0, true); !errors.Is(err, ErrParam) {
		t.Fatal("zero shards must error")
	}
}
