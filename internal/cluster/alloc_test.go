package cluster

import "testing"

// TestZeroAllocSuperstep gates the warm distributed PCG iteration: once the
// pooled args, replies, and runner sessions are primed, one iteration — the
// Mul round (direction update, halo fill, pᵀAp fold) and the Update round
// (step, re-precondition, reduction fold) — must not allocate. Measured over
// the direct in-process transport: net/rpc's gob codec allocates by design,
// so the TCP path is exercised for correctness elsewhere while this pins the
// coordinator and worker hot paths.
func TestZeroAllocSuperstep(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	_, sys := testSystem(t, 81, 48, 12)
	addrs := []string{"za0", "za1"}
	opts := PCGOptions{Dialer: InProcessDialer()}
	opts.fill(len(addrs))
	plan, err := NewPlan(sys.W, opts.Shards, true)
	if err != nil {
		t.Fatal(err)
	}
	co := &pcgCoord{sys: sys, plan: plan, opts: opts, pool: newPool(addrs, opts.Dialer), epoch: 1}
	defer co.pool.close()
	co.init(addrs)
	if err := co.bind([]bool{true, true}); err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, plan.M)
	if err := co.start(x0); err != nil {
		t.Fatal(err)
	}

	var stepErr error
	superstep := func() {
		if stepErr != nil {
			return
		}
		if co.converged() {
			// Restart from zero so every measured round runs a live Krylov
			// recurrence rather than iterating at the rounding floor.
			if stepErr = co.start(x0); stepErr != nil {
				return
			}
		}
		stepErr = co.iterate(co.seq == 0)
	}
	// Prime reply capacities and runner sessions.
	for i := 0; i < 5; i++ {
		superstep()
	}
	if stepErr != nil {
		t.Fatalf("warm-up iteration failed: %v", stepErr)
	}
	avg := testing.AllocsPerRun(200, superstep)
	if stepErr != nil {
		t.Fatalf("measured iteration failed: %v", stepErr)
	}
	if avg != 0 {
		t.Fatalf("warm PCG iteration allocates %.1f objects/op, want 0", avg)
	}
}
