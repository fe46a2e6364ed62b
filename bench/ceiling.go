package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The machine ceiling of the traced run: a STREAM triad for memory
// bandwidth and an FMA loop for arithmetic throughput. Each triad array is
// at least four times the last-level cache, the STREAM sizing rule, so the
// triad streams from DRAM; it runs only in the traced run so the untraced
// peak_rss_mb never sees its arrays.

// llcBytes reads the size of the highest-level CPU cache from sysfs.
func llcBytes() (int64, error) {
	dirs, err := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	if err != nil || len(dirs) == 0 {
		return 0, fmt.Errorf("no cache description under /sys")
	}
	bestLevel, best := -1, int64(0)
	for _, d := range dirs {
		lb, err1 := os.ReadFile(filepath.Join(d, "level"))
		sb, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, err := strconv.Atoi(strings.TrimSpace(string(lb)))
		if err != nil {
			continue
		}
		size, err := parseCacheSize(strings.TrimSpace(string(sb)))
		if err != nil {
			continue
		}
		if level > bestLevel || (level == bestLevel && size > best) {
			bestLevel, best = level, size
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("no readable cache size under /sys")
	}
	return best, nil
}

// parseCacheSize parses sysfs sizes such as "107520K" or "2M".
func parseCacheSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cache size %q: %w", s, err)
	}
	return v * mult, nil
}

// triadGBps runs a[i] = b[i] + s·c[i] over arrays of n float64 split across
// GOMAXPROCS goroutines, and returns the best of reps passes in GB/s,
// counting 24 bytes per element as STREAM does.
func triadGBps(n, reps int) float64 {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	workers := runtime.GOMAXPROCS(0)
	pass := func(f func(lo, hi int)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				f(lo, hi)
			}(w*n/workers, (w+1)*n/workers)
		}
		wg.Wait()
	}
	// Touch every page from its worker first, so the timed passes measure
	// streaming, not page faults.
	pass(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 0, 1, 2
		}
	})
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		s := 3.0 + float64(r)
		t0 := time.Now()
		pass(func(lo, hi int) {
			aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range aa {
				aa[i] = bb[i] + s*cc[i]
			}
		})
		best = min(best, time.Since(t0))
	}
	return 24 * float64(n) / best.Seconds() / 1e9
}

// fmaGFlops returns the single-core FMA throughput in GFLOP/s (2 flops per
// fused multiply-add), best of three timed runs.
func fmaGFlops() float64 {
	c := [2]float64{0.999999, 1e-3}
	iters := 1 << 22
	best := 0.0
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		sink = fmaLoop(iters, &c)
		best = max(best, float64(iters)*fmaFlopsPerIter/time.Since(t0).Seconds()/1e9)
	}
	return best
}

// sink keeps the FMA loop's result observable.
var sink float64

// fmaScalar is the portable FMA loop: eight independent scalar chains.
func fmaScalar(n int, c *[2]float64) float64 {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	m, k := c[0], c[1]
	for i := 0; i < n; i++ {
		a0 = math.FMA(a0, m, k)
		a1 = math.FMA(a1, m, k)
		a2 = math.FMA(a2, m, k)
		a3 = math.FMA(a3, m, k)
		a4 = math.FMA(a4, m, k)
		a5 = math.FMA(a5, m, k)
		a6 = math.FMA(a6, m, k)
		a7 = math.FMA(a7, m, k)
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

// ceilingProbe measures the machine ceiling and sets the ceiling metrics.
// arrayBytes > 0 overrides the per-array triad size (tests use a small
// one); otherwise each array is four times the last-level cache, capped at
// a sixth of the memory available so three arrays never crowd the host.
func ceilingProbe(r *run, arrayBytes int64) (triad, fma float64) {
	sp := r.tr.begin("ceiling")
	defer sp.end()
	llc, err := llcBytes()
	if err != nil {
		r.logf("ceiling: %v; assuming a 32 MiB last-level cache", err)
		llc = 32 << 20
	}
	if arrayBytes <= 0 {
		arrayBytes = 4 * llc
		if avail, err := procKB("/proc/meminfo", "MemAvailable:"); err == nil && 6*arrayBytes > avail<<10 {
			r.logf("ceiling: triad arrays capped at a sixth of %d MB available memory", avail>>10)
			arrayBytes = avail << 10 / 6
		}
	}
	tsp := sp.child("ceiling.triad")
	triad = triadGBps(int(arrayBytes/8), 5)
	tsp.end()
	fsp := sp.child("ceiling.fma")
	fma = fmaGFlops()
	fsp.end()
	r.set("ceiling.triad_gbps", triad)
	r.set("ceiling.fma_gflops", fma)
	r.set("ceiling.llc_mb", float64(llc)/(1<<20))
	r.set("ceiling.triad_array_mb", float64(arrayBytes)/(1<<20))
	r.logf("ceiling: LLC %.1f MiB, 3 triad arrays of %.1f MiB: %.2f GB/s; %s FMA: %.2f GFLOP/s per core",
		float64(llc)/(1<<20), float64(arrayBytes)/(1<<20), triad, fmaPath, fma)
	return triad, fma
}
