package cluster

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"

	"repro/internal/precond"
	"repro/internal/sparse"
)

// Wire protocol
//
// One RPC service ("Propagation") carries the distributed PCG solve
// (Bind/Start/Mul/Update/Gather): block-row conjugate gradient on A = D − W
// with a per-chunk additive-Schwarz preconditioner. Reductions return
// per-chunk partial sums so the coordinator can fold them in a fixed,
// shard-count-independent order.
//
// Every call carries (Shard, Epoch) and the stepped calls a sequence
// number. Epochs order rebinds: a call whose epoch is older than the
// block's current epoch is rejected as stale, so a worker reassigned after
// a coordinator-observed failure can never be driven by leftover traffic
// from the previous incarnation. Sequence numbers make stepped calls
// idempotent: a duplicate delivery of the last executed step returns the
// cached reply instead of re-executing, so at-least-once transports cannot
// corrupt the iteration.

// BindArgs ships one shard's block of the PCG system A = D − W: rows
// [Lo, Hi) in CSR form with local column indexing, the right-hand side,
// and the plan's halo/boundary index lists. Quantum is the plan's chunk
// size; the block must be chunk-aligned.
type BindArgs struct {
	Shard   int
	Epoch   int64
	Lo      int
	Hi      int
	M       int // total unknowns, for validation
	Quantum int
	RowPtr  []int // len Hi-Lo+1, offsets into Cols/Vals
	// Cols uses local indexing: c < Hi-Lo refers to own row Lo+c; c >=
	// Hi-Lo refers to halo entry Halo[c-(Hi-Lo)].
	Cols []int
	Vals []float64
	B    []float64
	// Halo lists, ascending, the global indices outside [Lo, Hi) the block
	// reads; Start and Mul ship values for exactly these indices, in this
	// order.
	Halo []int
	// Boundary lists, ascending, the block rows other shards read; replies
	// export z at exactly these rows.
	Boundary []int
}

// BindReply is empty.
type BindReply struct{}

// StartArgs (re)initializes a bound block's PCG state from a guess x0.
type StartArgs struct {
	Shard int
	Epoch int64
	// X0 is the block of the initial guess, Halo its halo values.
	X0   []float64
	Halo []float64
}

// ReduceReply returns the per-chunk partial reductions of a Start or
// Update: rᵀz and rᵀr restricted to each owned chunk (ascending chunk
// order), plus z at the boundary rows.
type ReduceReply struct {
	Rho []float64
	RR  []float64
	BZ  []float64
}

// MulArgs drives the direction update p ← z + βp and the product q = A p.
type MulArgs struct {
	Shard int
	Epoch int64
	Seq   int64
	Beta  float64
	Halo  []float64 // halo values of the updated p
}

// MulReply returns the per-chunk pᵀq partials.
type MulReply struct {
	Pi []float64
}

// UpdateArgs applies x ← x + αp, r ← r − αq and re-preconditions.
type UpdateArgs struct {
	Shard int
	Epoch int64
	Seq   int64
	Alpha float64
}

// GatherArgs requests a block's current solution iterate.
type GatherArgs struct {
	Shard int
	Epoch int64
}

// GatherReply carries the block of x.
type GatherReply struct {
	X []float64
}

// pcgChunk is one preconditioner chunk of a PCG block: a local row range
// and the chunk-diagonal factorization applied to it.
type pcgChunk struct {
	lo, hi int // local row range
	pre    precond.Preconditioner
}

// pcgBlock is one bound PCG block with its local Krylov state.
type pcgBlock struct {
	epoch          int64
	lo, hi, m      int
	quantum        int
	rowptr, cols   []int
	vals, b        []float64
	halo, boundary []int
	chunks         []pcgChunk
	x, r, p, z, q  []float64
	pfull          []float64 // [own | halo] read vector for products
	seq            int64
	phase          byte // 'A' after Start/Update, 'B' after Mul
	lastReduce     ReduceReply
	lastMul        MulReply
}

// WorkerService is the RPC-exposed worker. Blocks are keyed by shard index,
// so one worker can host several shards (the coordinator reassigns a
// crashed worker's blocks to survivors).
type WorkerService struct {
	mu  sync.Mutex
	pcg map[int]*pcgBlock
}

// NewWorkerService returns an empty worker.
func NewWorkerService() *WorkerService {
	return &WorkerService{pcg: map[int]*pcgBlock{}}
}

// validHalo checks a halo index list: ascending, within [0, m), outside
// [lo, hi).
func validHalo(halo []int, lo, hi, m int) error {
	for i, h := range halo {
		if h < 0 || h >= m || (h >= lo && h < hi) {
			return fmt.Errorf("cluster: halo index %d outside [0,%d)\\[%d,%d): %w", h, m, lo, hi, ErrParam)
		}
		if i > 0 && h <= halo[i-1] {
			return fmt.Errorf("cluster: halo not ascending at %d: %w", i, ErrParam)
		}
	}
	return nil
}

// validCSRBlock checks a local-indexed CSR block against its row count and
// halo width.
func validCSRBlock(rowptr, cols []int, vals []float64, rows, width int) error {
	if len(rowptr) != rows+1 || rowptr[0] != 0 || rowptr[rows] != len(cols) || len(cols) != len(vals) {
		return fmt.Errorf("cluster: block CSR shape inconsistent: %w", ErrParam)
	}
	for r := 0; r < rows; r++ {
		if rowptr[r] > rowptr[r+1] {
			return fmt.Errorf("cluster: block CSR row %d negative extent: %w", r, ErrParam)
		}
	}
	for _, c := range cols {
		if c < 0 || c >= width {
			return fmt.Errorf("cluster: block CSR column %d outside [0,%d): %w", c, width, ErrParam)
		}
	}
	return nil
}

// Bind installs (or rebinds) a PCG block: copies the matrix slice, checks
// chunk alignment, and factors the per-chunk additive-Schwarz
// preconditioner. The chunk layout depends only on (M, Quantum), never on
// the shard count, so the preconditioner is identical however the chunks
// are grouped into shards.
func (w *WorkerService) Bind(args *BindArgs, _ *BindReply) error {
	if args.Hi <= args.Lo || args.Lo < 0 || args.Hi > args.M {
		return fmt.Errorf("cluster: bind block [%d,%d) of %d invalid: %w", args.Lo, args.Hi, args.M, ErrParam)
	}
	if args.Quantum < 1 || args.Lo%args.Quantum != 0 || (args.Hi != args.M && args.Hi%args.Quantum != 0) {
		return fmt.Errorf("cluster: bind block [%d,%d) not aligned to quantum %d: %w", args.Lo, args.Hi, args.Quantum, ErrParam)
	}
	rows := args.Hi - args.Lo
	if len(args.B) != rows {
		return fmt.Errorf("cluster: bind rhs length %d for %d rows: %w", len(args.B), rows, ErrParam)
	}
	if err := validCSRBlock(args.RowPtr, args.Cols, args.Vals, rows, rows+len(args.Halo)); err != nil {
		return err
	}
	if err := validHalo(args.Halo, args.Lo, args.Hi, args.M); err != nil {
		return err
	}
	for i, g := range args.Boundary {
		if g < args.Lo || g >= args.Hi {
			return fmt.Errorf("cluster: boundary index %d outside [%d,%d): %w", g, args.Lo, args.Hi, ErrParam)
		}
		if i > 0 && g <= args.Boundary[i-1] {
			return fmt.Errorf("cluster: boundary not ascending at %d: %w", i, ErrParam)
		}
	}
	blk := &pcgBlock{
		epoch:    args.Epoch,
		lo:       args.Lo,
		hi:       args.Hi,
		m:        args.M,
		quantum:  args.Quantum,
		rowptr:   append([]int(nil), args.RowPtr...),
		cols:     append([]int(nil), args.Cols...),
		vals:     append([]float64(nil), args.Vals...),
		b:        append([]float64(nil), args.B...),
		halo:     append([]int(nil), args.Halo...),
		boundary: append([]int(nil), args.Boundary...),
		x:        make([]float64, rows),
		r:        make([]float64, rows),
		p:        make([]float64, rows),
		z:        make([]float64, rows),
		q:        make([]float64, rows),
		pfull:    make([]float64, rows+len(args.Halo)),
	}
	if err := blk.factorChunks(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if prev, ok := w.pcg[args.Shard]; ok && args.Epoch < prev.epoch {
		return fmt.Errorf("cluster: bind shard %d epoch %d < bound epoch %d: %w",
			args.Shard, args.Epoch, prev.epoch, ErrStale)
	}
	w.pcg[args.Shard] = blk
	return nil
}

// factorChunks extracts each owned chunk's diagonal sub-block and builds
// its preconditioner (IC(0), falling back to Jacobi scaling on breakdown —
// a per-chunk, hence shard-count-independent, decision).
func (blk *pcgBlock) factorChunks() error {
	rows := blk.hi - blk.lo
	blk.chunks = blk.chunks[:0]
	for start := 0; start < rows; start += blk.quantum {
		end := min(start+blk.quantum, rows)
		cn := end - start
		indptr := make([]int, cn+1)
		var indices []int
		var data []float64
		for r := start; r < end; r++ {
			diagSeen := false
			for c := blk.rowptr[r]; c < blk.rowptr[r+1]; c++ {
				lc := blk.cols[c]
				if lc >= start && lc < end {
					indices = append(indices, lc-start)
					data = append(data, blk.vals[c])
					if lc == r {
						diagSeen = blk.vals[c] > 0
					}
				}
			}
			if !diagSeen {
				return fmt.Errorf("cluster: bind row %d lacks a positive diagonal: %w", blk.lo+r, ErrParam)
			}
			indptr[r-start+1] = len(indices)
		}
		sub, err := sparse.NewCSR(cn, cn, indptr, indices, data)
		if err != nil {
			return fmt.Errorf("cluster: bind chunk at %d: %w: %v", blk.lo+start, ErrParam, err)
		}
		pre, err := precond.Auto(sub)
		if err != nil {
			return fmt.Errorf("cluster: bind chunk precond at %d: %w: %v", blk.lo+start, ErrParam, err)
		}
		blk.chunks = append(blk.chunks, pcgChunk{lo: start, hi: end, pre: pre})
	}
	return nil
}

// spmv computes dst = A_block · [own | halo] for the provided own values
// (already copied into pfull[:rows]) and halo values.
func (blk *pcgBlock) spmv(dst []float64) {
	rows := blk.hi - blk.lo
	for r := 0; r < rows; r++ {
		var s float64
		for c := blk.rowptr[r]; c < blk.rowptr[r+1]; c++ {
			s += blk.vals[c] * blk.pfull[blk.cols[c]]
		}
		dst[r] = s
	}
}

// reduceInto preconditions r into z and fills the cached ReduceReply with
// per-chunk rᵀz, rᵀr partials (row order inside each chunk, ascending
// chunks) and the boundary z export.
func (blk *pcgBlock) reduceInto() {
	rep := &blk.lastReduce
	rep.Rho = rep.Rho[:0]
	rep.RR = rep.RR[:0]
	rep.BZ = rep.BZ[:0]
	for _, ch := range blk.chunks {
		ch.pre.Apply(blk.z[ch.lo:ch.hi], blk.r[ch.lo:ch.hi])
		var rho, rr float64
		for i := ch.lo; i < ch.hi; i++ {
			rho += blk.r[i] * blk.z[i]
			rr += blk.r[i] * blk.r[i]
		}
		rep.Rho = append(rep.Rho, rho)
		rep.RR = append(rep.RR, rr)
	}
	for _, g := range blk.boundary {
		rep.BZ = append(rep.BZ, blk.z[g-blk.lo])
	}
}

func copyReduce(dst *ReduceReply, src *ReduceReply) {
	dst.Rho = append(dst.Rho[:0], src.Rho...)
	dst.RR = append(dst.RR[:0], src.RR...)
	dst.BZ = append(dst.BZ[:0], src.BZ...)
}

// Start (re)initializes the block's Krylov state from x0: r = b − A x0,
// p = 0, z = M⁻¹r. It is idempotent for its epoch (a duplicate simply
// recomputes the same pure function) and accepts epoch bumps, which is how
// the coordinator advances surviving blocks past a rebind without
// reshipping the matrix.
func (w *WorkerService) Start(args *StartArgs, reply *ReduceReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	blk, ok := w.pcg[args.Shard]
	if !ok {
		return fmt.Errorf("cluster: start on unbound shard %d: %w", args.Shard, ErrParam)
	}
	if args.Epoch < blk.epoch {
		return fmt.Errorf("cluster: start shard %d epoch %d < bound epoch %d: %w", args.Shard, args.Epoch, blk.epoch, ErrStale)
	}
	rows := blk.hi - blk.lo
	if len(args.X0) != rows || len(args.Halo) != len(blk.halo) {
		return fmt.Errorf("cluster: start lengths x0=%d halo=%d, want %d/%d: %w",
			len(args.X0), len(args.Halo), rows, len(blk.halo), ErrParam)
	}
	blk.epoch = args.Epoch
	copy(blk.x, args.X0)
	copy(blk.pfull[:rows], args.X0)
	copy(blk.pfull[rows:], args.Halo)
	blk.spmv(blk.q)
	for i := range blk.r {
		blk.r[i] = blk.b[i] - blk.q[i]
		blk.p[i] = 0
	}
	blk.reduceInto()
	blk.seq = 0
	blk.phase = 'A'
	copyReduce(reply, &blk.lastReduce)
	return nil
}

// Mul advances the search direction (p ← z + βp) and computes q = A p,
// returning per-chunk pᵀq partials.
func (w *WorkerService) Mul(args *MulArgs, reply *MulReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	blk, ok := w.pcg[args.Shard]
	if !ok {
		return fmt.Errorf("cluster: mul on unbound shard %d: %w", args.Shard, ErrParam)
	}
	if args.Epoch != blk.epoch {
		return fmt.Errorf("cluster: mul shard %d epoch %d, bound %d: %w", args.Shard, args.Epoch, blk.epoch, ErrStale)
	}
	if len(args.Halo) != len(blk.halo) {
		return fmt.Errorf("cluster: mul with %d halo values, want %d: %w", len(args.Halo), len(blk.halo), ErrParam)
	}
	if args.Seq == blk.seq && blk.phase == 'B' {
		reply.Pi = append(reply.Pi[:0], blk.lastMul.Pi...)
		return nil
	}
	if args.Seq != blk.seq+1 || blk.phase != 'A' {
		return fmt.Errorf("cluster: mul shard %d seq %d phase %c, expected seq %d phase A: %w",
			args.Shard, args.Seq, blk.phase, blk.seq+1, ErrStale)
	}
	rows := blk.hi - blk.lo
	for i := range blk.p {
		blk.p[i] = blk.z[i] + args.Beta*blk.p[i]
	}
	copy(blk.pfull[:rows], blk.p)
	copy(blk.pfull[rows:], args.Halo)
	blk.spmv(blk.q)
	blk.lastMul.Pi = blk.lastMul.Pi[:0]
	for _, ch := range blk.chunks {
		var pi float64
		for i := ch.lo; i < ch.hi; i++ {
			pi += blk.p[i] * blk.q[i]
		}
		blk.lastMul.Pi = append(blk.lastMul.Pi, pi)
	}
	blk.seq = args.Seq
	blk.phase = 'B'
	reply.Pi = append(reply.Pi[:0], blk.lastMul.Pi...)
	return nil
}

// Update applies the step (x ← x + αp, r ← r − αq), re-preconditions, and
// returns the next reduction partials.
func (w *WorkerService) Update(args *UpdateArgs, reply *ReduceReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	blk, ok := w.pcg[args.Shard]
	if !ok {
		return fmt.Errorf("cluster: update on unbound shard %d: %w", args.Shard, ErrParam)
	}
	if args.Epoch != blk.epoch {
		return fmt.Errorf("cluster: update shard %d epoch %d, bound %d: %w", args.Shard, args.Epoch, blk.epoch, ErrStale)
	}
	if args.Seq == blk.seq && blk.phase == 'A' && blk.seq > 0 {
		copyReduce(reply, &blk.lastReduce)
		return nil
	}
	if args.Seq != blk.seq+1 || blk.phase != 'B' {
		return fmt.Errorf("cluster: update shard %d seq %d phase %c, expected seq %d phase B: %w",
			args.Shard, args.Seq, blk.phase, blk.seq+1, ErrStale)
	}
	for i := range blk.x {
		blk.x[i] += args.Alpha * blk.p[i]
		blk.r[i] -= args.Alpha * blk.q[i]
	}
	blk.reduceInto()
	blk.seq = args.Seq
	blk.phase = 'A'
	copyReduce(reply, &blk.lastReduce)
	return nil
}

// Gather returns the block's current solution iterate.
func (w *WorkerService) Gather(args *GatherArgs, reply *GatherReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	blk, ok := w.pcg[args.Shard]
	if !ok {
		return fmt.Errorf("cluster: gather on unbound shard %d: %w", args.Shard, ErrParam)
	}
	if args.Epoch != blk.epoch {
		return fmt.Errorf("cluster: gather shard %d epoch %d, bound %d: %w", args.Shard, args.Epoch, blk.epoch, ErrStale)
	}
	reply.X = append(reply.X[:0], blk.x...)
	return nil
}

// Worker is a running TCP worker process hosting a WorkerService.
type Worker struct {
	ln      net.Listener
	service *WorkerService
	wg      sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// StartWorker launches a worker listening on addr (use "127.0.0.1:0" for an
// ephemeral port). Close must be called to release the listener.
func StartWorker(addr string) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	w := &Worker{ln: ln, service: NewWorkerService(), conns: make(map[net.Conn]struct{})}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Propagation", w.service); err != nil {
		_ = ln.Close()
		return nil, fmt.Errorf("cluster: register: %w", err)
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			w.mu.Lock()
			w.conns[conn] = struct{}{}
			w.mu.Unlock()
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				srv.ServeConn(conn)
				w.mu.Lock()
				delete(w.conns, conn)
				w.mu.Unlock()
			}()
		}
	}()
	return w, nil
}

// Addr returns the worker's dialable address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Close stops accepting connections, terminates live sessions, and waits
// for the serving goroutines to exit. Coordinators with in-flight calls
// observe an RPC error — the failure SolvePCG absorbs by rebinding the
// worker's shards, or surfaces as ErrWorker once its restart budget is
// spent.
func (w *Worker) Close() error {
	err := w.ln.Close()
	w.mu.Lock()
	for c := range w.conns {
		_ = c.Close()
	}
	w.mu.Unlock()
	w.wg.Wait()
	return err
}
