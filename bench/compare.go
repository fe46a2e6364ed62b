package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json that -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// runSet holds one side's results: workload → run key → metric values. The
// run key is the file name after the workload, so runs of the same seed
// pair up across sides.
type runSet map[string]map[string]map[string]float64

// loadRuns reads every <workload>.<key> file of dir as one run's output.
func loadRuns(dir string) (runSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("read runs: %w", err)
	}
	set := runSet{}
	for _, e := range entries {
		w, key, ok := strings.Cut(e.Name(), ".")
		if e.IsDir() || !ok {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("read run: %w", err)
		}
		res, err := parseResult(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s: run was not correct (%d of %d failed)", e.Name(), res.Failed, res.Attempted)
		}
		if set[w] == nil {
			set[w] = map[string]map[string]float64{}
		}
		vals := map[string]float64{}
		for name, m := range res.Metrics {
			vals[name] = m.Value
		}
		set[w][key] = vals
	}
	return set, nil
}

// quartiles returns the quartiles of xs by the exclusive method of
// Python's statistics.quantiles(xs, n=4), the one the benchmark's own
// acceptance uses. xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := len(d) + 1
	q := func(i int) float64 {
		j, delta := i*m/4, i*m%4
		lo, hi := max(j-1, 0), min(j, len(d)-1)
		return (d[lo]*float64(4-delta) + d[hi]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdict is the comparison outcome of one metric on one workload.
type verdict struct {
	workload, metric     string
	medA, q1A, q3A       float64
	medB, q1B, q3B       float64
	worse                float64 // relative change of B's median in the worse direction
	spread               float64 // larger relative quartile spread of the two sides
	wins, pairs          int     // runs of B better than the same-key run of A
	bound                float64
	outcome              string
	hasBound, countCheck bool
}

// compareMetric applies the rules of a change's acceptance to one metric:
// regression when B's median is worse than A's by more than the bound;
// unresolved when either side's quartile spread exceeds the bound, unless
// every B run is better than every A run; gain when B wins at least nine in
// ten paired runs and the medians differ by more than A's quartile spread.
func compareMetric(m specMetric, hasBound bool, a, b map[string]float64) verdict {
	var av, bv []float64
	for _, x := range a {
		av = append(av, x)
	}
	for _, x := range b {
		bv = append(bv, x)
	}
	v := verdict{metric: m.Name, bound: m.Bound, hasBound: hasBound}
	v.q1A, v.medA, v.q3A = quartiles(av)
	v.q1B, v.medB, v.q3B = quartiles(bv)
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	if m.Better == "higher" {
		v.worse = (v.medA - v.medB) / math.Abs(v.medA)
	} else {
		v.worse = (v.medB - v.medA) / math.Abs(v.medA)
	}
	v.spread = max((v.q3A-v.q1A)/math.Abs(v.medA), (v.q3B-v.q1B)/math.Abs(v.medB))
	for k, x := range b {
		y, ok := a[k]
		if !ok {
			continue
		}
		v.pairs++
		if better(x, y) {
			v.wins++
		}
		if m.Unit == "count" && x != y {
			v.countCheck = true
		}
	}
	allBetter := true
	for _, x := range bv {
		for _, y := range av {
			allBetter = allBetter && better(x, y)
		}
	}
	gain := v.pairs > 0 && float64(v.wins) >= 0.9*float64(v.pairs) && math.Abs(v.medB-v.medA) > v.q3A-v.q1A
	switch {
	case v.medA == 0 && v.medB == 0:
		v.outcome, v.worse, v.spread = "no change", 0, 0
	case !hasBound && v.countCheck:
		v.outcome = "count differs"
	case !hasBound:
		v.outcome = "-"
		if gain {
			v.outcome = "better"
		}
	case v.spread > m.Bound && allBetter:
		v.outcome = "gain"
	case v.spread > m.Bound:
		v.outcome = "unresolved"
	case v.worse > m.Bound:
		v.outcome = "regression"
	case gain:
		v.outcome = "gain"
	default:
		v.outcome = "no change"
	}
	return v
}

// compareMain prints the comparison of two run directories and reports
// whether any end-to-end metric regressed or could not be resolved.
func compareMain(w io.Writer, specPath, dirA, dirB string) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadRuns(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return false, err
	}
	verdicts, err := compareSets(spec, a, b)
	if err != nil {
		return false, err
	}
	bad := false
	fmt.Fprintf(w, "%-13s %-28s %-34s %-34s %9s %8s %7s %6s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B better", "spread", "bound", "wins", "verdict")
	for _, v := range verdicts {
		bound := "-"
		if v.hasBound {
			bound = fmt.Sprintf("%.1f%%", 100*v.bound)
		}
		fmt.Fprintf(w, "%-13s %-28s %-34s %-34s %+8.2f%% %7.2f%% %7s %6s  %s\n",
			v.workload, v.metric,
			fmt.Sprintf("%.5g [%.5g, %.5g]", v.medA, v.q1A, v.q3A),
			fmt.Sprintf("%.5g [%.5g, %.5g]", v.medB, v.q1B, v.q3B),
			-100*v.worse, 100*v.spread, bound, fmt.Sprintf("%d/%d", v.wins, v.pairs), v.outcome)
		if v.outcome == "regression" || v.outcome == "unresolved" {
			bad = true
		}
	}
	return bad, nil
}

// compareSets compares every metric present on both sides, workload by
// workload in BENCHMARK.json order; end-to-end metrics carry their bounds.
func compareSets(spec *benchSpec, a, b runSet) ([]verdict, error) {
	var out []verdict
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) < 2 || len(rb) < 2 {
			if len(ra)+len(rb) > 0 {
				return nil, fmt.Errorf("workload %s: need at least two runs per side, have %d and %d", wl.Name, len(ra), len(rb))
			}
			continue
		}
		for _, group := range []struct {
			defs     []specMetric
			hasBound bool
		}{{spec.EndToEnd, true}, {spec.PerLayer, false}} {
			for _, m := range group.defs {
				va, vb := values(ra, m.Name), values(rb, m.Name)
				if len(va) < 2 || len(vb) < 2 {
					continue
				}
				v := compareMetric(m, group.hasBound, va, vb)
				v.workload = wl.Name
				out = append(out, v)
			}
		}
	}
	return out, nil
}

// values collects one metric across a side's runs, keyed by run.
func values(runs map[string]map[string]float64, metric string) map[string]float64 {
	out := map[string]float64{}
	for key, vals := range runs {
		if x, ok := vals[metric]; ok {
			out[key] = x
		}
	}
	return out
}
