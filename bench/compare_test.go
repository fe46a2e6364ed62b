package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q2, q3 := quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

// side builds one side's runs of a metric, keyed by seed.
func side(vals ...float64) map[string]float64 {
	out := map[string]float64{}
	for i, v := range vals {
		out[fmt.Sprintf("seed%d", i+1)] = v
	}
	return out
}

func TestCompareMetricVerdicts(t *testing.T) {
	lower := specMetric{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	base := side(100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100)
	cases := []struct {
		name string
		m    specMetric
		a, b map[string]float64
		want string
	}{
		{"same", lower, base, side(100.3, 99.6, 100, 101, 99, 100.1, 99.9, 100.4, 99.7, 100), "no change"},
		{"slower beyond bound", lower, base, side(115, 116, 114, 115.5, 114.5, 115.2, 114.8, 115.1, 114.9, 115), "regression"},
		{"slower within bound", lower, base, side(105, 106, 104, 105.5, 104.5, 105.2, 104.8, 105.1, 104.9, 105), "no change"},
		{"faster in every pair", lower, base, side(90, 91, 89, 90.5, 89.5, 90.2, 89.8, 90.1, 89.9, 90), "gain"},
		{"throughput dropped", higher, base, side(80, 81, 79, 80.5, 79.5, 80.2, 79.8, 80.1, 79.9, 80), "regression"},
		{"noisy parent", lower, side(60, 140, 80, 120, 100, 70, 130, 90, 110, 100), base, "unresolved"},
	}
	for _, c := range cases {
		if v := compareMetric(c.m, true, c.a, c.b); v.outcome != c.want {
			t.Errorf("%s: verdict %q, want %q (worse %.3f, spread %.3f, wins %d/%d)", c.name, v.outcome, c.want, v.worse, v.spread, v.wins, v.pairs)
		}
	}
	count := specMetric{Name: "sparse.pcg_iters", Unit: "count", Better: "lower"}
	if v := compareMetric(count, false, side(23, 23, 24), side(23, 24, 24)); v.outcome != "count differs" {
		t.Errorf("count metric: verdict %q, want %q", v.outcome, "count differs")
	}
}

// writeRuns writes one fake run output per (workload, seed, latency).
func writeRuns(t *testing.T, dir string, latencies map[string][]float64) {
	t.Helper()
	for w, lats := range latencies {
		for i, l := range lats {
			res := result{Correct: true, Attempted: 10, Metrics: map[string]metricValue{
				"latency_p50_ms": {Value: l, Unit: "ms"},
			}}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			out := append([]byte("log line\n"), b...)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s.seed%d.out", w, i+1)), out, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"fit"},{"name":"ingest"}],
		"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}],"per_layer":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	for _, d := range []string{a, b} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	writeRuns(t, a, map[string][]float64{"fit": {10, 10.1, 9.9, 10}, "ingest": {5, 5.1, 4.9, 5}})
	writeRuns(t, b, map[string][]float64{"fit": {10, 10.2, 9.8, 10.1}, "ingest": {7, 7.1, 6.9, 7}})
	var out bytes.Buffer
	bad, err := compareMain(&out, spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bad {
		t.Errorf("a 40%% slower ingest was not reported\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.HasSuffix(lines[1], "no change") || !strings.HasSuffix(lines[2], "regression") {
		t.Errorf("unexpected table:\n%s", out.String())
	}
	if v := compareMetric(specMetric{Better: "lower", Bound: 0.1}, true, side(1, 1), side(1, 1)); math.IsNaN(v.worse) {
		t.Error("identical sides give NaN change")
	}
}
