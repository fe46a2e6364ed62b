package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed normalization. The benchmark shares a machine with other
// tenants, and their load moves the speed of the same code by a quarter or
// more from one minute to the next (README.md, "Why times are normalized"):
// the raw times of ten runs spread far beyond any useful regression bound,
// however long each run is. So the benchmark reports every end-to-end time
// at a nominal host speed. A reference loop that belongs to the benchmark —
// scalar FMA chains, then random and sequential reads of a 32 MiB array, on
// every core at once — runs before and after each timed slice of work, and
// the slice's times are scaled by
//
//	speed = refNominal / (mean of the reference times of the probes around it).
//
// No change to the program can change the reference loop, so the scaling
// takes out the host's swings and keeps the program's. The program must be
// idle while a probe runs: a probe measures the CPU time the rest of the
// process spends meanwhile, and the run fails its checks when that exceeds
// maxInterference.

// refNominal is the reference loop's time per core on the host the
// benchmark was calibrated on, in a quiet period (README.md). It only sets
// the scale: a normalized time reads as the raw time would at that speed.
const refNominal = 60 * time.Millisecond

// maxInterference is the most CPU, in cores, the rest of the process may
// use while a probe runs before the probe no longer measures the host alone.
const maxInterference = 0.25

// Reference loop sizes, each about a third of refNominal.
const (
	refFMAIters = 10_000_000
	refGathers  = 1 << 21
	refScans    = 4
	refArrayLen = 1 << 22 // float64s: 32 MiB, a power of two for masking
)

// CPU-time clocks of clock_gettime(2).
const (
	clockProcess = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThread  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// host probes the host's speed and keeps what the probes measured.
type host struct {
	last         float64         // speed at the latest probe
	refs         []time.Duration // per probe, the mean reference time of a core
	interference []float64       // per probe, the rest of the process's CPU in cores
}

// newHost takes the first probe.
func newHost() *host {
	h := &host{}
	h.last = h.probe()
	return h
}

// next closes a timed slice of work: it probes the host and returns the
// slice's speed, the mean of the speeds before and after it.
func (h *host) next() float64 {
	s := h.probe()
	f := (h.last + s) / 2
	h.last = s
	return f
}

// probe collects the heap, so that no collection overlaps it, runs the
// reference loop on every core at once over a freshly mapped array, and
// returns refNominal over the mean time a core took. The array lives
// outside the Go heap and only for the probe, so it moves neither the
// collector's pacing nor any peak-memory window of the program.
func (h *host) probe() float64 {
	runtime.GC()
	arr, unmap := refArray()
	defer unmap()
	workers := runtime.GOMAXPROCS(0)
	took := make([]time.Duration, workers)
	cpu := make([]time.Duration, workers)
	sums := make([]float64, workers)
	var wg sync.WaitGroup
	self0 := cpuTime(clockProcess)
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := cpuTime(clockThread)
			s0 := time.Now()
			sums[w] = refLoop(arr, uint64(w)+1)
			took[w] = time.Since(s0)
			cpu[w] = cpuTime(clockThread) - c0
		}(w)
	}
	wg.Wait()
	wall := time.Since(t0)
	other := cpuTime(clockProcess) - self0
	var mean time.Duration
	for w := range took {
		mean += took[w] / time.Duration(workers)
		other -= cpu[w]
		sink += sums[w]
	}
	h.refs = append(h.refs, mean)
	h.interference = append(h.interference, max(0, other.Seconds()/wall.Seconds()))
	return refNominal.Seconds() / mean.Seconds()
}

// refArray maps and fills the reference loop's array and returns it with
// the function that unmaps it.
func refArray() ([]float64, func()) {
	var arr []float64
	unmap := func() {}
	if mem, err := syscall.Mmap(-1, 0, refArrayLen*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON); err == nil {
		arr = unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), refArrayLen)
		unmap = func() { _ = syscall.Munmap(mem) }
	} else {
		arr = make([]float64, refArrayLen)
	}
	for i := range arr {
		arr[i] = float64(i&1023) * 1e-3
	}
	return arr, unmap
}

// refLoop is the reference work of one core: latency-bound scalar
// arithmetic, then random and sequential reads of arr.
func refLoop(arr []float64, seed uint64) float64 {
	var a0, a1, a2, a3 float64
	for i := 0; i < refFMAIters; i++ {
		a0 = math.FMA(a0, 0.999999, 1e-3)
		a1 = math.FMA(a1, 0.999998, 1e-3)
		a2 = math.FMA(a2, 0.999997, 1e-3)
		a3 = math.FMA(a3, 0.999996, 1e-3)
	}
	s := a0 + a1 + a2 + a3
	mask := uint64(len(arr) - 1)
	x := seed
	for i := 0; i < refGathers; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s += arr[(x>>20)&mask]
	}
	for p := 0; p < refScans; p++ {
		for _, v := range arr {
			s += v
		}
	}
	return s
}

// cpuTime reads a CPU-time clock. Unlike getrusage, these clocks include
// the running thread's time since its last scheduler tick, so they resolve
// the tens of milliseconds a probe takes.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// refMs returns the median reference time of a core over the run's probes.
func (h *host) refMs() float64 {
	return median(durationsMs(h.refs))
}

// worstInterference returns the most CPU, in cores, the rest of the
// process used during one probe.
func (h *host) worstInterference() float64 {
	m := 0.0
	for _, v := range h.interference {
		m = max(m, v)
	}
	return m
}

// rangePct returns (slowest − fastest) / median of the probes' reference
// times in percent: how far the host's speed moved during the run.
func (h *host) rangePct() float64 {
	ms := durationsMs(h.refs)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range ms {
		lo, hi = min(lo, v), max(hi, v)
	}
	return 100 * (hi - lo) / median(ms)
}
