package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricDef declares one reported metric with its unit, exactly as
// BENCHMARK.json lists it; bench_test.go keeps the two in agreement.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload emits
// every one of them from its untraced run; what the workload's operation is
// (a fit, a predict request, an ingested point) is fixed per workload and
// documented in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics of the traced run, named after the
// repository's modules. A layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"graph.build_s", "s"},
	{"graph.nnz", "count"},
	{"spatial.kdtree_build_s", "s"},
	{"spatial.knn_query_us", "us"},
	{"core.problem_s", "s"},
	{"core.system_s", "s"},
	{"core.health_s", "s"},
	{"core.solve_s", "s"},
	{"core.solve_unattributed_s", "s"},
	{"sparse.rcm_s", "s"},
	{"precond.ic0_setup_s", "s"},
	{"precond.apply_us", "us"},
	{"sparse.spmv_us", "us"},
	{"sparse.spmv_gbps", "GB/s"},
	{"sparse.spmv_roofline", "ratio"},
	{"sparse.spmv_working_set_mb", "MB"},
	{"sparse.pcg_s", "s"},
	{"sparse.pcg_iters", "count"},
	{"graphssl.snapshot_s", "s"},
	{"serve.model_build_s", "s"},
	{"serve.predict_us_per_point", "us"},
	{"kernel.dist2_gflops", "GFLOP/s"},
	{"kernel.dist2_roofline", "ratio"},
	{"serve.rtt_us", "us"},
	{"serve.overhead_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.batch_occupancy", "points/batch"},
	{"serve.shed_ratio", "ratio"},
	{"stream.insert_us", "us"},
	{"stream.refresh_ms", "ms"},
	{"stream.refresh_iters", "iters/refresh"},
	{"stream.refresh_label-values", "count"},
	{"stream.refresh_woodbury", "count"},
	{"stream.refresh_warm-pcg", "count"},
	{"stream.refresh_full-refit", "count"},
	{"serve.apply_delta_ms", "ms"},
	{"serve.registry_store_us", "us"},
	{"serve.ingest_batch_pts", "points"},
	{"ceiling.triad_gbps", "GB/s"},
	{"ceiling.fma_gflops", "GFLOP/s"},
	{"ceiling.llc_mb", "MB"},
	{"ceiling.triad_array_mb", "MB"},
	{"loadgen.late_p99_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.span_coverage", "ratio"},
	{"host.ref_ms", "ms"},
	{"host.range_pct", "%"},
}

// run is the state of one workload execution: its configuration, the
// tracer (nil when untraced), the operation and check tallies behind
// attempted/failed, and the metrics it reports.
type run struct {
	workload string
	seed     int64
	seconds  float64
	size     scale
	tr       *tracer
	host     *host
	out      *bufio.Writer // human-readable lines, flushed before the result

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
}

func newRun(workload string, seed int64, seconds float64, size scale, traced bool, out *bufio.Writer) *run {
	r := &run{workload: workload, seed: seed, seconds: seconds, size: size, host: newHost(), out: out, metrics: map[string]float64{}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// traced reports whether this is the per-layer run.
func (r *run) traced() bool { return r.tr != nil }

// defs returns the metrics this run reports.
func (r *run) defs() []metricDef {
	if r.traced() {
		return perLayer
	}
	return endToEnd
}

// op records one attempted operation (a fit, an HTTP request) and its
// failure, if any.
func (r *run) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// check records one output check; ok=false counts as a failure.
func (r *run) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("check failed: "+format, args...)
	}
	r.op(err)
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the declared metric set: every end-to-end metric for an
// untraced run (each must have been measured), every per-layer metric for a
// traced one (unmeasured layers read 0).
func (r *run) result() (result, error) {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range r.defs() {
		v, ok := r.metrics[d.name]
		if !ok && !r.traced() {
			return res, fmt.Errorf("workload %s did not measure %s", r.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("workload %s measured %s = %v", r.workload, d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	return res, nil
}

// parseResult reads the result object from the last non-empty line of a
// run's standard output.
func parseResult(stdout []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if len(lines) == 0 || lines[len(lines)-1] == "" {
		return res, fmt.Errorf("empty output")
	}
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which it
// sorts in place. With fewer than 1/(1-q) samples the nearest rank is the
// maximum.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// resetPeakRSS starts a peak-memory window: it collects the heap, returns
// the freed pages to the OS and resets the kernel's resident-set
// high-water mark to the current resident set. A window then measures the
// memory its unit of work needs, not when earlier garbage happened to be
// collected.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns the resident-set high-water mark (VmHWM) since the last
// resetPeakRSS, in MB.
func peakRSSMB() (float64, error) {
	kb, err := procKB("/proc/self/status", "VmHWM:")
	return float64(kb) / 1024, err
}

// procKB reads a "key: value kB" line of a /proc file.
func procKB(path, key string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", path, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				if err != nil {
					return 0, fmt.Errorf("parse %s in %s: %w", key, path, err)
				}
				return kb, nil
			}
		}
	}
	return 0, fmt.Errorf("%s missing from %s", key, path)
}
