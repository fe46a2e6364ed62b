package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	graphssl "repro"
	"repro/internal/randx"
	"repro/internal/synth"
)

// loadTestSpec reads the repository's BENCHMARK.json.
func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode pins the metric and workload declarations of
// BENCHMARK.json to the ones the program reports.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadTestSpec(t)
	same := func(kind string, declared []specMetric, code []metricDef) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(declared), len(code))
			return
		}
		for i, d := range declared {
			if d.Name != code[i].name || d.Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, d.Name, d.Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadOrder[i])
		}
	}
}

// TestWorkloadsSmoke runs every workload at tiny size, untraced and
// traced, and checks each emits exactly its declared metrics with their
// units, passes its output checks, and — traced — writes well-formed spans.
func TestWorkloadsSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	for _, w := range workloadOrder {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			spans := filepath.Join(t.TempDir(), "spans.json")
			res, err := runWorkload(w, 1, 0.6, traced, tiny, spans, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s traced=%v: %d of %d failed\n%s", w, traced, res.Failed, res.Attempted, out.String())
			}
			printed, err := parseResult(out.Bytes())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			if len(printed.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", w, traced, len(printed.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := printed.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s traced=%v: %s unit %q, declared %q", w, traced, d.Name, m.Unit, d.Unit)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, d.Name, m.Value)
				}
			}
			if traced {
				checkSpanFile(t, w, spans)
			}
		}
	}
}

func checkSpanFile(t *testing.T, workload, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var doc struct {
		Spans  []spanRecord          `json:"spans"`
		ByName map[string]*nameTotal `json:"by_name"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if len(doc.Spans) == 0 {
		t.Fatalf("%s: no spans", workload)
	}
	if err := checkSpans(doc.Spans); err != nil {
		t.Errorf("%s: %v", workload, err)
	}
	nested := false
	for _, s := range doc.Spans {
		nested = nested || s.Parent != 0
	}
	if !nested {
		t.Errorf("%s: no span has a parent", workload)
	}
	for name, nt := range doc.ByName {
		if nt.SelfNs < 0 || nt.SelfNs > nt.TotalNs {
			t.Errorf("%s: %s self %d ns outside [0, total %d ns]", workload, name, nt.SelfNs, nt.TotalNs)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRecord{
		{Trace: 1, ID: 1, Name: "root", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{Trace: 1, ID: 4, Parent: 3, Name: "c", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 30, 3: 20, 4: 10} {
		if self[id] != want {
			t.Errorf("span %d self %d, want %d", id, self[id], want)
		}
	}
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}
	spans[3].End = 70 // c escapes b
	if err := checkSpans(spans); err == nil {
		t.Error("a child outside its parent passed")
	}
}

// newTestRun is an untraced run whose log goes nowhere.
func newTestRun() *run {
	return newRun("test", 1, 1, tiny, false, bufio.NewWriter(io.Discard))
}

// TestChecksCatchCorruptScores feeds each workload's output check one
// correct and one corrupted result and expects exactly one failure.
func TestChecksCatchCorruptScores(t *testing.T) {
	expect := func(t *testing.T, name string, failed int, err error, want int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if failed != want {
			t.Errorf("%s: %d checks failed, want %d", name, failed, want)
		}
	}
	t.Run("fit", func(t *testing.T) {
		ds, err := synth.Generate(randx.New(3), synth.Model1, tiny.fitLabeled, tiny.fitUnlabeled)
		if err != nil {
			t.Fatal(err)
		}
		c := &fitCase{x: ds.X, y: ds.YLabeled(), kind: graphssl.Gaussian, knn: 10}
		res, _, err := c.servable()
		if err != nil {
			t.Fatal(err)
		}
		r := newTestRun()
		err = checkFit(r, c, res)
		expect(t, "clean", r.failed, err, 0)
		res.UnlabeledScores[len(res.UnlabeledScores)/2] += 1e-6
		r = newTestRun()
		err = checkFit(r, c, res)
		expect(t, "corrupted", r.failed, err, 1)
	})
	t.Run("predict", func(t *testing.T) {
		models, err := newCoilModels(1, tiny.coilPerClass)
		if err != nil {
			t.Fatal(err)
		}
		mx := &predictMix{models: models, seed: 1}
		_, m, err := models[1].c.servable()
		if err != nil {
			t.Fatal(err)
		}
		pts := [][]float64{noisyRender(models[1].c.x[0], noiseSigma, newRand(1)), noisyRender(models[1].c.x[5], noiseSigma, newRand(2))}
		scores, errs := m.PredictBatch(pts)
		if errs != nil {
			t.Fatal(errs)
		}
		r := newTestRun()
		err = checkPredict(r, mx, []sample{{model: 1, pts: pts, scores: scores}})
		expect(t, "clean", r.failed, err, 0)
		scores[1] *= 1 + 1e-9
		r = newTestRun()
		err = checkPredict(r, mx, []sample{{model: 1, pts: pts, scores: scores}})
		expect(t, "corrupted", r.failed, err, 1)
	})
	t.Run("ingest", func(t *testing.T) {
		c := ingestFixture(tiny.ingestN, 1)
		_, m, err := c.servable()
		if err != nil {
			t.Fatal(err)
		}
		q := near(c.x[c.labeled[3]], c.bw, newRand(7))
		score, err := m.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		load := func(score float64) *ingestLoad {
			return &ingestLoad{r: newTestRun(), c: c, base: len(c.labeled),
				polls: []poll{{at: time.Now(), version: 1, anchors: len(c.labeled)}},
				reads: []ingestRead{{q: q, version: 1, score: score}}}
		}
		ld := load(score)
		err = ld.check()
		expect(t, "clean", ld.r.failed, err, 0)
		ld = load(score + 1e-9)
		err = ld.check()
		expect(t, "corrupted", ld.r.failed, err, 1)
	})
}
