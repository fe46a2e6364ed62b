// Package parallel provides the shared multicore substrate for the hot
// paths of the reproduction: chunked parallel loops over index ranges with
// deterministic work decomposition, worker-count resolution, and panic
// propagation from workers to the caller.
//
// Design rules that every user of this package relies on:
//
//   - Decomposition is a pure function of (n, chunk count), never of timing:
//     Split always produces the same contiguous blocks, and For's chunks are
//     fixed ranges handed to whichever worker is free. A chunk's OUTPUT must
//     therefore depend only on the chunk's input range — never on which
//     worker ran it or in what order — which makes every caller's result
//     bitwise-identical across worker counts.
//   - workers <= 0 resolves to runtime.GOMAXPROCS(0); workers == 1 runs the
//     body inline on the calling goroutine (the serial fallback path, no
//     goroutines spawned).
//   - A panic inside the body is recovered, and the first one observed is
//     re-raised on the calling goroutine after all workers have stopped.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0); positive values are returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Block is a contiguous index range [Lo, Hi).
type Block struct {
	Lo, Hi int
}

// Len returns the block size.
func (b Block) Len() int { return b.Hi - b.Lo }

// Split divides [0, n) into k contiguous near-equal blocks (sizes differ by
// at most one). k is clamped to [1, n] so no block is empty; n == 0 yields
// no blocks. The decomposition depends only on (n, k), so per-block results
// indexed by block id can be merged deterministically.
func Split(n, k int) []Block {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	blocks := make([]Block, k)
	base, rem := n/k, n%k
	lo := 0
	for i := range blocks {
		size := base
		if i < rem {
			size++
		}
		blocks[i] = Block{Lo: lo, Hi: lo + size}
		lo += size
	}
	return blocks
}

// panicError carries a worker panic (with its stack) to the caller.
type panicError struct {
	value any
	stack string
}

func (p *panicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", p.value, p.stack)
}

// ForBlocks runs fn(i, blocks[i]) for every block, distributing blocks
// across up to `workers` goroutines. Block identity is stable, so fn may
// write per-block results into a slot indexed by i and the caller can merge
// them in block order for a deterministic result. workers == 1 (after
// resolution) runs everything inline in order.
func ForBlocks(workers int, blocks []Block, fn func(i int, b Block)) {
	workers = Workers(workers)
	if len(blocks) == 0 {
		return
	}
	if workers > len(blocks) {
		workers = len(blocks)
	}
	if workers == 1 {
		for i, b := range blocks {
			fn(i, b)
		}
		return
	}
	var (
		next  int64 = -1
		wg    sync.WaitGroup
		once  sync.Once
		fatal *panicError
	)
	body := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				buf := make([]byte, 8192)
				buf = buf[:runtime.Stack(buf, false)]
				once.Do(func() { fatal = &panicError{value: r, stack: string(buf)} })
			}
		}()
		for {
			i := int(atomic.AddInt64(&next, 1))
			if i >= len(blocks) {
				return
			}
			fn(i, blocks[i])
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go body()
	}
	wg.Wait()
	if fatal != nil {
		panic(fatal)
	}
}

// For runs fn over [0, n) split into contiguous chunks scheduled across up
// to `workers` goroutines. Chunks are fixed ranges (a deterministic function
// of n and the resolved worker count); fn must only write data owned by its
// range, which makes the overall result independent of scheduling. The
// chunk count exceeds the worker count to absorb per-range load imbalance.
func For(workers, n int, fn func(lo, hi int)) {
	workers = Workers(workers)
	if n <= 0 {
		return
	}
	// Ranges this small never amortize goroutine startup for the row-level
	// work in this repo (O(d) to O(n) per index); run them inline.
	const minParallelSpan = 128
	if workers == 1 || n < minParallelSpan {
		fn(0, n)
		return
	}
	// Over-decompose for load balance; the block layout stays a pure
	// function of (n, workers) so chunk boundaries are reproducible.
	blocks := Split(n, workers*4)
	ForBlocks(workers, blocks, func(_ int, b Block) { fn(b.Lo, b.Hi) })
}
