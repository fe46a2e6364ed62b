package cluster

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
)

// PCGOptions configures the distributed PCG engine.
type PCGOptions struct {
	// Shards is the number of blocks the system is cut into; default one
	// per worker address. The chunk layout — and hence every floating-point
	// operation of the solve — is shard-count independent, so any shard
	// count over the same system yields the bitwise-same solution.
	Shards int
	// Tol is the relative residual target ‖r‖₂ ≤ Tol·‖b‖₂; default 1e-10.
	Tol float64
	// MaxIter caps PCG iterations across restarts; default 10000.
	MaxIter int
	// Dialer opens worker sessions; default DialTCP.
	Dialer Dialer
	// StepTimeout bounds each synchronized round; a round that misses the
	// deadline has its laggard workers declared dead and rebound. 0 means
	// no deadline.
	StepTimeout time.Duration
	// CheckpointEvery gathers the iterate every k iterations so a crashed
	// shard can warm-restart from a recent solution instead of zero;
	// default 50, negative disables.
	CheckpointEvery int
	// MaxRestarts bounds failure recoveries before the solve gives up with
	// ErrWorker; default 2, negative means none.
	MaxRestarts int
	// NoRCM disables the reverse Cuthill–McKee locality ordering.
	NoRCM bool
}

func (o *PCGOptions) fill(naddrs int) {
	if o.Shards <= 0 {
		o.Shards = naddrs
	}
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10000
	}
	if o.Dialer == nil {
		o.Dialer = DialTCP
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 50
	}
	if o.MaxRestarts == 0 {
		o.MaxRestarts = 2
	} else if o.MaxRestarts < 0 {
		o.MaxRestarts = 0
	}
}

// SolvePCG solves (D − W) f = B across the workers at addrs with
// block-partitioned preconditioned conjugate gradient: the plan's chunks
// act as additive-Schwarz preconditioner blocks and as reduction units, so
// partial dot products fold in a fixed global chunk order no matter how
// chunks are grouped into shards. Crash-free runs are therefore
// bitwise-identical across shard counts. Worker failures are absorbed by
// reassigning the lost blocks to survivors and warm-restarting from the
// last checkpoint (surfaced in Result.Restarts/Rebinds); the returned
// solution is always re-verified against the original system, so a
// recovered run can never silently return a wrong answer.
func SolvePCG(sys *core.PropagationSystem, addrs []string, opts PCGOptions) ([]float64, Result, error) {
	if sys == nil || sys.M() == 0 {
		return nil, Result{}, fmt.Errorf("cluster: empty system: %w", ErrParam)
	}
	if len(addrs) == 0 {
		return nil, Result{}, fmt.Errorf("cluster: no worker addresses: %w", ErrParam)
	}
	opts.fill(len(addrs))
	plan, err := NewPlan(sys.W, opts.Shards, !opts.NoRCM)
	if err != nil {
		return nil, Result{}, err
	}
	co := &pcgCoord{sys: sys, plan: plan, opts: opts, pool: newPool(addrs, opts.Dialer), epoch: 1}
	defer co.pool.close()
	co.init(addrs)
	return co.solve()
}

// pcgCoord drives one distributed PCG solve.
type pcgCoord struct {
	sys  *core.PropagationSystem
	plan *Plan
	opts PCGOptions
	pool *pool

	assign []string // shard → current worker address
	epoch  int64
	seq    int64

	calls       []*pcall
	done        chan *pcall
	startArgs   []*StartArgs
	mulArgs     []*MulArgs
	updArgs     []*UpdateArgs
	gathArgs    []*GatherArgs
	redReplies  []*ReduceReply
	mulReplies  []*MulReply
	gathReplies []*GatherReply

	// zB and pB mirror z and p at boundary rows only (dense for O(1)
	// scatter); pB follows the exact worker recurrence p ← z + βp, so a
	// halo read of pB is bitwise-equal to the owner's own p entry.
	zB, pB []float64
	bset   []int // ascending union of all shard boundaries

	bb, rho, rhoPrev, rr float64

	ck     []float64 // checkpointed permuted iterate
	ckOK   bool
	xfinal []float64

	res Result
}

func (co *pcgCoord) init(addrs []string) {
	n := len(co.plan.Shards)
	m := co.plan.M
	co.assign = make([]string, n)
	for s := range co.assign {
		co.assign[s] = addrs[s%len(addrs)]
	}
	co.calls = make([]*pcall, n)
	co.done = make(chan *pcall, n)
	co.startArgs = make([]*StartArgs, n)
	co.mulArgs = make([]*MulArgs, n)
	co.updArgs = make([]*UpdateArgs, n)
	co.gathArgs = make([]*GatherArgs, n)
	co.redReplies = make([]*ReduceReply, n)
	co.mulReplies = make([]*MulReply, n)
	co.gathReplies = make([]*GatherReply, n)
	for s := range co.plan.Shards {
		sh := &co.plan.Shards[s]
		co.calls[s] = &pcall{shard: s}
		co.startArgs[s] = &StartArgs{Shard: s, X0: make([]float64, sh.Len()), Halo: make([]float64, len(sh.Halo))}
		co.mulArgs[s] = &MulArgs{Shard: s, Halo: make([]float64, len(sh.Halo))}
		co.updArgs[s] = &UpdateArgs{Shard: s}
		co.gathArgs[s] = &GatherArgs{Shard: s}
		co.redReplies[s] = &ReduceReply{}
		co.mulReplies[s] = &MulReply{}
		co.gathReplies[s] = &GatherReply{}
		// Shard boundaries are disjoint ascending ranges, so concatenation
		// in shard order is already the sorted union.
		co.bset = append(co.bset, sh.Boundary...)
	}
	co.zB = make([]float64, m)
	co.pB = make([]float64, m)
	co.xfinal = make([]float64, m)
	// ‖b‖² folded in global chunk order, matching the workers' partials.
	q := co.plan.Quantum
	for c := 0; c < co.plan.Chunks; c++ {
		var part float64
		for i := c * q; i < min((c+1)*q, m); i++ {
			bi := co.sys.B[co.plan.Perm[i]]
			part += bi * bi
		}
		co.bb += part
	}
	co.res = Result{
		Workers:   len(addrs),
		Shards:    n,
		EdgeCut:   co.plan.Stats.EdgeCut,
		HaloTotal: co.plan.Stats.HaloTotal,
	}
}

func (co *pcgCoord) solve() ([]float64, Result, error) {
	m := co.plan.M
	x0 := make([]float64, m)
	needBind := make([]bool, len(co.plan.Shards))
	for s := range needBind {
		needBind[s] = true
	}
	var xperm []float64
	var lastErr error
	for attempt := 0; ; attempt++ {
		xp, werr := co.run(x0, needBind)
		if werr == nil {
			xperm = xp
			break
		}
		if errors.Is(werr, ErrNotConverged) || errors.Is(werr, ErrParam) {
			return nil, co.res, werr
		}
		lastErr = werr
		if attempt >= co.opts.MaxRestarts {
			return nil, co.res, fmt.Errorf("cluster: solve abandoned after %d restart(s): %w: %v",
				co.res.Restarts, ErrWorker, lastErr)
		}
		co.harvest(x0)
		if err := co.reassign(needBind); err != nil {
			return nil, co.res, err
		}
		co.res.Restarts++
	}
	f := make([]float64, m)
	for i, v := range xperm {
		f[co.plan.Perm[i]] = v
	}
	rel, err := co.verify(f)
	if err != nil {
		return nil, co.res, err
	}
	co.res.Residual = rel
	if thresh := co.opts.Tol * 1e3; rel > thresh {
		return nil, co.res, fmt.Errorf("cluster: verification residual %.3e exceeds %.3e after %d restart(s): %w",
			rel, thresh, co.res.Restarts, ErrWorker)
	}
	return f, co.res, nil
}

// run binds whatever needs binding, (re)starts every shard from x0, and
// iterates to convergence; the gathered permuted solution is returned.
// Errors wrapping ErrNotConverged or ErrParam are terminal; anything else
// is a worker failure the caller may recover from.
func (co *pcgCoord) run(x0 []float64, needBind []bool) ([]float64, error) {
	if err := co.bind(needBind); err != nil {
		return nil, err
	}
	if err := co.start(x0); err != nil {
		return nil, err
	}
	iterInRun := 0
	for {
		if co.converged() {
			if err := co.gatherInto(co.xfinal); err != nil {
				return nil, err
			}
			return co.xfinal, nil
		}
		if co.res.Iterations >= co.opts.MaxIter {
			return nil, fmt.Errorf("cluster: pcg exhausted %d iterations (‖r‖/‖b‖ = %.3e): %w",
				co.opts.MaxIter, co.relres(), ErrNotConverged)
		}
		if err := co.iterate(iterInRun == 0); err != nil {
			return nil, err
		}
		co.res.Iterations++
		iterInRun++
		if co.opts.CheckpointEvery > 0 && iterInRun%co.opts.CheckpointEvery == 0 {
			if err := co.checkpoint(); err != nil {
				return nil, err
			}
		}
	}
}

// iterate runs one PCG iteration as two synchronized rounds: Mul advances
// every shard's search direction (β = 0 on the first iteration after a
// start) and returns the pᵀAp partials, then Update steps x and r by α and
// returns the next reduction partials. Once the pooled args and replies are
// warm, an iteration allocates nothing; CI gates it with
// testing.AllocsPerRun.
func (co *pcgCoord) iterate(first bool) error {
	var beta float64
	if !first {
		beta = co.rho / co.rhoPrev
	}
	for _, g := range co.bset {
		co.pB[g] = co.zB[g] + beta*co.pB[g]
	}
	co.seq++
	for s := range co.plan.Shards {
		a := co.mulArgs[s]
		a.Epoch, a.Seq, a.Beta = co.epoch, co.seq, beta
		for k, h := range co.plan.Shards[s].Halo {
			a.Halo[k] = co.pB[h]
		}
		co.setCall(s, "Propagation.Mul", a, co.mulReplies[s])
	}
	if fails := co.pool.round(co.calls, co.done, co.opts.StepTimeout); len(fails) > 0 {
		return roundFailErr("mul", fails)
	}
	pi, err := co.foldPi()
	if err != nil {
		return err
	}
	if pi <= 0 || math.IsNaN(pi) {
		return fmt.Errorf("cluster: pcg breakdown pᵀAp = %g: %w", pi, ErrNotConverged)
	}
	alpha := co.rho / pi
	co.seq++
	for s := range co.plan.Shards {
		a := co.updArgs[s]
		a.Epoch, a.Seq, a.Alpha = co.epoch, co.seq, alpha
		co.setCall(s, "Propagation.Update", a, co.redReplies[s])
	}
	if fails := co.pool.round(co.calls, co.done, co.opts.StepTimeout); len(fails) > 0 {
		return roundFailErr("update", fails)
	}
	co.rhoPrev = co.rho
	return co.scatterReduce()
}

// bind ships the marked shards' blocks at the current epoch.
func (co *pcgCoord) bind(needBind []bool) error {
	var sub []*pcall
	for s := range co.plan.Shards {
		if !needBind[s] {
			continue
		}
		blk := extractShard(co.sys, co.plan, s)
		sh := &co.plan.Shards[s]
		args := &BindArgs{
			Shard:    s,
			Epoch:    co.epoch,
			Lo:       sh.Lo,
			Hi:       sh.Hi,
			M:        co.plan.M,
			Quantum:  co.plan.Quantum,
			RowPtr:   blk.rowptr,
			Cols:     blk.cols,
			Vals:     blk.vals,
			B:        blk.b,
			Halo:     sh.Halo,
			Boundary: sh.Boundary,
		}
		co.setCall(s, "Propagation.Bind", args, &BindReply{})
		sub = append(sub, co.calls[s])
	}
	if len(sub) == 0 {
		return nil
	}
	if fails := co.pool.round(sub, co.done, co.bindTimeout()); len(fails) > 0 {
		return roundFailErr("bind", fails)
	}
	for s := range needBind {
		needBind[s] = false
	}
	return nil
}

// bindTimeout scales the step deadline for the bulk matrix transfer.
func (co *pcgCoord) bindTimeout() time.Duration {
	if co.opts.StepTimeout <= 0 {
		return 0
	}
	return 10 * co.opts.StepTimeout
}

// start (re)initializes every shard's Krylov state from x0 and folds the
// first reduction.
func (co *pcgCoord) start(x0 []float64) error {
	for s := range co.plan.Shards {
		sh := &co.plan.Shards[s]
		a := co.startArgs[s]
		a.Epoch = co.epoch
		copy(a.X0, x0[sh.Lo:sh.Hi])
		for k, h := range sh.Halo {
			a.Halo[k] = x0[h]
		}
		co.setCall(s, "Propagation.Start", a, co.redReplies[s])
	}
	if fails := co.pool.round(co.calls, co.done, co.opts.StepTimeout); len(fails) > 0 {
		return roundFailErr("start", fails)
	}
	co.seq = 0
	co.rhoPrev = 0
	return co.scatterReduce()
}

// scatterReduce folds the per-chunk ρ and rᵀr partials in global chunk
// order (shards are ascending chunk ranges, each reply is ascending within
// its range) and scatters the boundary z exports into zB.
func (co *pcgCoord) scatterReduce() error {
	var rho, rr float64
	for s := range co.plan.Shards {
		sh := &co.plan.Shards[s]
		rep := co.redReplies[s]
		if len(rep.Rho) != sh.ChunkHi-sh.ChunkLo || len(rep.RR) != len(rep.Rho) || len(rep.BZ) != len(sh.Boundary) {
			return fmt.Errorf("cluster: shard %d reduce reply shape %d/%d/%d: %w",
				s, len(rep.Rho), len(rep.RR), len(rep.BZ), ErrWorker)
		}
		for _, v := range rep.Rho {
			rho += v
		}
		for _, v := range rep.RR {
			rr += v
		}
		for k, g := range sh.Boundary {
			co.zB[g] = rep.BZ[k]
		}
	}
	co.rho, co.rr = rho, rr
	return nil
}

// foldPi folds the per-chunk pᵀq partials in global chunk order.
func (co *pcgCoord) foldPi() (float64, error) {
	var pi float64
	for s := range co.plan.Shards {
		sh := &co.plan.Shards[s]
		rep := co.mulReplies[s]
		if len(rep.Pi) != sh.ChunkHi-sh.ChunkLo {
			return 0, fmt.Errorf("cluster: shard %d mul reply shape %d: %w", s, len(rep.Pi), ErrWorker)
		}
		for _, v := range rep.Pi {
			pi += v
		}
	}
	return pi, nil
}

func (co *pcgCoord) converged() bool {
	return math.Sqrt(co.rr) <= co.opts.Tol*math.Sqrt(co.bb)
}

func (co *pcgCoord) relres() float64 {
	if co.bb > 0 {
		return math.Sqrt(co.rr / co.bb)
	}
	return math.Sqrt(co.rr)
}

// gatherInto collects every shard's current iterate into dst (permuted).
func (co *pcgCoord) gatherInto(dst []float64) error {
	for s := range co.plan.Shards {
		a := co.gathArgs[s]
		a.Epoch = co.epoch
		co.setCall(s, "Propagation.Gather", a, co.gathReplies[s])
	}
	if fails := co.pool.round(co.calls, co.done, co.opts.StepTimeout); len(fails) > 0 {
		return roundFailErr("gather", fails)
	}
	for s := range co.plan.Shards {
		sh := &co.plan.Shards[s]
		if len(co.gathReplies[s].X) != sh.Len() {
			return fmt.Errorf("cluster: shard %d gather returned %d values for %d rows: %w",
				s, len(co.gathReplies[s].X), sh.Len(), ErrWorker)
		}
		copy(dst[sh.Lo:sh.Hi], co.gathReplies[s].X)
	}
	return nil
}

// checkpoint snapshots the current iterate for warm restarts.
func (co *pcgCoord) checkpoint() error {
	if co.ck == nil {
		co.ck = make([]float64, co.plan.M)
	}
	if err := co.gatherInto(co.ck); err != nil {
		return err
	}
	co.ckOK = true
	return nil
}

// harvest assembles the best available restart guess into x0: live shards
// contribute their current block, anything unreachable falls back to the
// last checkpoint (or zero before the first one).
func (co *pcgCoord) harvest(x0 []float64) {
	alive := map[string]bool{}
	for _, a := range co.pool.aliveAddrs() {
		alive[a] = true
	}
	var sub []*pcall
	for s := range co.plan.Shards {
		if !alive[co.assign[s]] {
			continue
		}
		a := co.gathArgs[s]
		a.Epoch = co.epoch
		co.setCall(s, "Propagation.Gather", a, co.gathReplies[s])
		sub = append(sub, co.calls[s])
	}
	got := make([]bool, len(co.plan.Shards))
	if len(sub) > 0 {
		fails := co.pool.round(sub, co.done, co.opts.StepTimeout)
		failed := map[int]bool{}
		for _, f := range fails {
			failed[f.shard] = true
		}
		for _, c := range sub {
			s := c.shard
			sh := &co.plan.Shards[s]
			if !failed[s] && len(co.gathReplies[s].X) == sh.Len() {
				copy(x0[sh.Lo:sh.Hi], co.gathReplies[s].X)
				got[s] = true
			}
		}
	}
	for s := range co.plan.Shards {
		if got[s] {
			continue
		}
		sh := &co.plan.Shards[s]
		if co.ckOK {
			copy(x0[sh.Lo:sh.Hi], co.ck[sh.Lo:sh.Hi])
		} else {
			clear(x0[sh.Lo:sh.Hi])
		}
	}
}

// reassign moves every shard bound to a dead address onto a survivor and
// advances the epoch, fencing off stale traffic from the old incarnation.
func (co *pcgCoord) reassign(needBind []bool) error {
	alive := co.pool.aliveAddrs()
	if len(alive) == 0 {
		return fmt.Errorf("cluster: no workers left alive: %w", ErrWorker)
	}
	aliveSet := make(map[string]bool, len(alive))
	for _, a := range alive {
		aliveSet[a] = true
	}
	co.epoch++
	for s := range co.assign {
		if aliveSet[co.assign[s]] {
			continue
		}
		co.assign[s] = alive[s%len(alive)]
		needBind[s] = true
		co.res.Rebinds++
	}
	return nil
}

// verify recomputes the relative residual of f against the original
// (unpermuted) system.
func (co *pcgCoord) verify(f []float64) (float64, error) {
	wf, err := co.sys.W.MulVec(f)
	if err != nil {
		return 0, err
	}
	var rr, bb float64
	for i := range f {
		r := co.sys.B[i] + wf[i] - co.sys.D[i]*f[i]
		rr += r * r
		bb += co.sys.B[i] * co.sys.B[i]
	}
	if bb == 0 {
		return math.Sqrt(rr), nil
	}
	return math.Sqrt(rr / bb), nil
}

func (co *pcgCoord) setCall(s int, method string, args, reply any) {
	c := co.calls[s]
	c.method, c.args, c.reply, c.addr = method, args, reply, co.assign[s]
}
