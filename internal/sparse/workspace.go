package sparse

import (
	"math/bits"
	"sync"
)

// Workspace is a reusable bundle of solver scratch vectors. The CG/PCG
// engine draws its residual, direction, and preconditioner buffers from
// one, so a caller that holds a Workspace across repeated solves — a λ
// sweep, a multi-RHS loop — does zero steady-state heap allocation: every
// buffer is grown once to the largest size seen and then reused.
//
// A Workspace is not goroutine-safe; concurrent solves need one each.
// Buffer contents are undefined between solves — solvers fully overwrite
// every vector they take, so reuse never changes results bitwise.
type Workspace struct {
	bufs   [][]float64
	bucket int // pool bucket this workspace was drawn from; -1 when fresh
}

// NewWorkspace returns a fresh, unpooled workspace. Use it when measuring
// allocation behaviour without pool effects, or when the workspace outlives
// any sensible pool epoch; GetWorkspace is the cheaper default.
func NewWorkspace() *Workspace {
	return &Workspace{bucket: -1}
}

// vec returns the k-th scratch vector resized to length n, growing storage
// only when n exceeds the largest length previously requested for slot k.
func (w *Workspace) vec(k, n int) []float64 {
	for len(w.bufs) <= k {
		w.bufs = append(w.bufs, nil)
	}
	if cap(w.bufs[k]) < n {
		w.bufs[k] = make([]float64, n)
	}
	return w.bufs[k][:n]
}

// wsPools buckets pooled workspaces by the power-of-two size class of the
// system they last served, so a transient huge solve does not pin
// multi-megabyte buffers onto the workspace every small solve draws.
var wsPools [64]sync.Pool

// sizeBucket maps a system size onto its pool index.
func sizeBucket(n int) int {
	if n < 1 {
		n = 1
	}
	return bits.Len(uint(n))
}

// GetWorkspace draws a pooled workspace suitable for systems of about n
// unknowns. Callers must Release it when the solve (or solve sequence)
// finishes. Solvers call this internally when no Workspace is supplied, so
// one-shot solves stay allocation-light without any caller involvement.
func GetWorkspace(n int) *Workspace {
	b := sizeBucket(n)
	if ws, ok := wsPools[b].Get().(*Workspace); ok {
		ws.bucket = b
		return ws
	}
	return &Workspace{bucket: b}
}

// Release returns the workspace to its size-class pool. The workspace must
// not be used afterwards; buffers handed out by vec are invalidated.
func (w *Workspace) Release() {
	if w == nil {
		return
	}
	max := 0
	for _, b := range w.bufs {
		if cap(b) > max {
			max = cap(b)
		}
	}
	b := sizeBucket(max)
	w.bucket = b
	wsPools[b].Put(w)
}
