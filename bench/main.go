// Command bench is the repository's benchmark: four workloads that drive the
// public API (graphssl.Fit, Result.Snapshot, serve.NewModel and the serve
// HTTP server with its default configuration) and report end-to-end metrics,
// or per-layer metrics from a separately traced run.
//
// Run one workload (what bench/run.sh does):
//
//	go run . -workload fit -seed 1 -seconds 15 -trace 0
//
// Run every workload, each in a fresh child process, and keep the outputs:
//
//	go run . -runs 5 -out runs-a
//
// Compare two sets of outputs under the BENCHMARK.json bounds:
//
//	go run . -compare runs-a runs-b
//
// The last line of a single run's standard output is its result as JSON;
// see README.md for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// scale sizes the workloads: full is the benchmark, tiny the smoke test.
type scale struct {
	fitLabeled, fitUnlabeled     int
	checkLabeled, checkUnlabeled int
	coilPerClass                 int
	ingestN                      int
	setups, predictSetups        int   // set-ups per run (fewer of the costly predict ones); setup_s is their median
	coldWarm, hotWarm            int   // warm-up requests per connection
	triadBytes                   int64 // per triad array; 0 = four times the LLC
}

var (
	full = scale{fitLabeled: 2500, fitUnlabeled: 22500, checkLabeled: 200, checkUnlabeled: 1800,
		coilPerClass: 250, ingestN: 20000, setups: 3, predictSetups: 2, coldWarm: 400, hotWarm: 1000}
	tiny = scale{fitLabeled: 300, fitUnlabeled: 2700, checkLabeled: 100, checkUnlabeled: 900,
		coilPerClass: 20, ingestN: 1600, setups: 2, predictSetups: 2, coldWarm: 20, hotWarm: 40,
		triadBytes: 1 << 20}
)

// workloadOrder lists the workloads as BENCHMARK.json does.
var workloadOrder = []string{"fit", "predict-cold", "predict-hot", "ingest"}

var workloads = map[string]func(*run) error{
	"fit":          fitWorkload,
	"predict-cold": func(r *run) error { return predictWorkload(r, false) },
	"predict-hot":  func(r *run) error { return predictWorkload(r, true) },
	"ingest":       ingestWorkload,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+" (empty: all, each in a child process)")
		seed     = flag.Int64("seed", 1, "input seed (with -runs: the first seed)")
		seconds  = flag.Float64("seconds", 15, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		spans    = flag.String("spans", "", "traced run: span file (default .bench_build/spans/<workload>-<seed>.json)")
		runs     = flag.Int("runs", 1, "all workloads: runs per workload, with consecutive seeds")
		outDir   = flag.String("out", "", "all workloads: directory to keep each run's output in")
		compare  = flag.Bool("compare", false, "compare two directories of run outputs: -compare A B")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two directories")
			break
		}
		var regressed bool
		regressed, err = compareMain(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err == nil && regressed {
			os.Exit(1)
		}
	case *workload == "":
		err = runAll(*seed, *runs, *seconds, *trace, *outDir)
	default:
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", *workload, *seed))
		}
		var res result
		res, err = runWorkload(*workload, *seed, *seconds, *trace != 0, full, path, os.Stdout)
		if err == nil && !res.Correct {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload, writes its log lines and then the result
// line to stdout, and returns the result. An error means the run could not
// complete; no result line is written then.
func runWorkload(name string, seed int64, seconds float64, traced bool, size scale, spansPath string, stdout io.Writer) (result, error) {
	f, ok := workloads[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadOrder, ", "))
	}
	if seconds <= 0 {
		return result{}, fmt.Errorf("seconds must be positive, got %v", seconds)
	}
	out := bufio.NewWriter(stdout)
	r := newRun(name, seed, seconds, size, traced, out)
	r.logf("workload %s, seed %d, %.3g s, traced %v", name, seed, seconds, traced)
	err := f(r)
	r.host.probe()
	r.logf("host: %d probes, reference loop %.2f ms per core (median; nominal %.0f ms), range %.0f%% of the median, rest of the process during a probe up to %.2f cores",
		len(r.host.refs), r.host.refMs(), ms(refNominal), r.host.rangePct(), r.host.worstInterference())
	r.check(r.host.worstInterference() <= maxInterference, "the process used %.2f cores during a host probe, more than %.2f", r.host.worstInterference(), maxInterference)
	if err == nil && traced {
		r.set("host.ref_ms", r.host.refMs())
		r.set("host.range_pct", r.host.rangePct())
		err = finishTraced(r, spansPath)
	}
	for _, msg := range r.failures {
		r.logf("failure: %s", msg)
	}
	if err != nil {
		_ = out.Flush()
		return result{}, err
	}
	res, err := r.result()
	if err != nil {
		_ = out.Flush()
		return result{}, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, fmt.Errorf("encode result: %w", err)
	}
	for _, d := range r.defs() {
		r.logf("  %-30s %14.6g %s", d.name, res.Metrics[d.name].Value, d.unit)
	}
	r.logf("%s", line)
	return res, out.Flush()
}

// finishTraced runs the machine-ceiling probe, derives the roofline
// fractions, checks the span structure and writes the spans out.
func finishTraced(r *run, path string) error {
	triad, fma := ceilingProbe(r, r.size.triadBytes)
	if g := r.metrics["sparse.spmv_gbps"]; g > 0 {
		r.set("sparse.spmv_roofline", g/triad)
	}
	// One distance pair reads one anchor row of 8·d bytes for 3·d flops.
	if g := r.metrics["kernel.dist2_gflops"]; g > 0 {
		r.set("kernel.dist2_roofline", g/min(fma, triad*3/8))
	}
	err := checkSpans(r.tr.records())
	r.check(err == nil, "spans: %v", err)
	if err := r.tr.write(path); err != nil {
		return err
	}
	r.logf("spans written to %s", path)
	return nil
}

// runAll runs every workload runs times, each run in a fresh child process
// of this binary, optionally keeping each run's output as
// <out>/<workload>.seed<seed>.out for -compare.
func runAll(seed int64, runs int, seconds float64, trace int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fmt.Errorf("output directory: %w", err)
		}
	}
	failed := 0
	for i := 0; i < runs; i++ {
		s := seed + int64(i)
		for _, w := range workloadOrder {
			var buf bytes.Buffer
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
			cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w, s, err)
				failed++
			}
			if outDir != "" {
				if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s.seed%d.out", w, s)), buf.Bytes(), 0o644); err != nil {
					return fmt.Errorf("keep output: %w", err)
				}
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed", failed)
	}
	return nil
}
