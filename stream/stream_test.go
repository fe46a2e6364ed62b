package stream

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	graphssl "repro"
	"repro/internal/core"
)

// mirror tracks the ground-truth state of a streamed point set so tests
// can rebuild the equivalent batch fit from scratch.
type mirror struct {
	pts   [][]float64
	alive []bool
	lab   []bool
	y     []float64
	seq   []int // labeling order (ids; may contain dead/unlabeled)
}

func (m *mirror) insert(p []float64, hasLabel bool, y float64) int {
	id := len(m.pts)
	m.pts = append(m.pts, p)
	m.alive = append(m.alive, true)
	m.lab = append(m.lab, hasLabel)
	m.y = append(m.y, y)
	if hasLabel {
		m.seq = append(m.seq, id)
	}
	return id
}

func (m *mirror) del(id int) {
	m.alive[id] = false
	m.lab[id] = false
}

func (m *mirror) label(id int, y float64) {
	if !m.lab[id] {
		m.seq = append(m.seq, id)
	}
	m.lab[id] = true
	m.y[id] = y
}

// applyRemap renumbers the mirror after a compaction: remap[oldID] = new
// id or -1 for dead ids, as returned by Compact / RefreshOutcome.Remap.
func (m *mirror) applyRemap(remap []int) {
	n := 0
	for _, nid := range remap {
		if nid >= 0 {
			n++
		}
	}
	pts := make([][]float64, n)
	lab := make([]bool, n)
	y := make([]float64, n)
	alive := make([]bool, n)
	var seq []int
	for old, nid := range remap {
		if nid < 0 {
			continue
		}
		pts[nid] = m.pts[old]
		lab[nid] = m.lab[old]
		y[nid] = m.y[old]
		alive[nid] = true
	}
	for _, old := range m.seq {
		if m.lab[old] && m.alive[old] && remap[old] >= 0 {
			seq = append(seq, remap[old])
		}
	}
	m.pts, m.lab, m.y, m.alive, m.seq = pts, lab, y, alive, seq
}

// liveSet compacts the mirror into Fit inputs: live points in id order,
// labeled indices in labeling order.
func (m *mirror) liveSet() (x [][]float64, y []float64, labeled []int) {
	remap := make([]int, len(m.pts))
	for id, p := range m.pts {
		if !m.alive[id] {
			remap[id] = -1
			continue
		}
		remap[id] = len(x)
		x = append(x, p)
	}
	for _, id := range m.seq {
		if !m.lab[id] || !m.alive[id] {
			continue
		}
		labeled = append(labeled, remap[id])
		y = append(y, m.y[id])
	}
	return x, y, labeled
}

// randPoint draws a point in [0,1]^dim.
func randPoint(rng *rand.Rand, dim int) []float64 {
	p := make([]float64, dim)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

// seedStream builds a fresh Ingestor plus its mirror with n0 points of
// which nLab are labeled, deterministic in the seed.
func seedStream(t *testing.T, n0, nLab, dim int, bw float64, workers int, seed int64, cfg Config) (*Ingestor, *mirror) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := &mirror{}
	for i := 0; i < n0; i++ {
		m.insert(randPoint(rng, dim), i < nLab, 0)
	}
	y := make([]float64, nLab)
	labeled := make([]int, nLab)
	for i := 0; i < nLab; i++ {
		labeled[i] = i
		y[i] = rng.NormFloat64()
		m.y[i] = y[i]
	}
	cfg.Bandwidth = bw
	cfg.Workers = workers
	if cfg.Kernel == 0 {
		cfg.Kernel = graphssl.Epanechnikov
	}
	in, err := New(m.pts, y, labeled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in, m
}

func bitwiseEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// fitScores runs the batch pipeline on the mirror's live set.
func fitScores(t *testing.T, m *mirror, kern graphssl.Kernel, bw float64, workers int) []float64 {
	t.Helper()
	x, y, labeled := m.liveSet()
	res, err := graphssl.Fit(x, y, labeled,
		graphssl.WithKernel(kern),
		graphssl.WithBandwidth(bw),
		graphssl.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return res.Scores
}

// driveScript applies a fixed pseudo-random edit script to an ingestor
// and its mirror: inserts (some labeled), deletes, relabels, with a
// Refresh after every batch.
func driveScript(t *testing.T, in *Ingestor, m *mirror, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < steps; s++ {
		switch op := rng.Intn(10); {
		case op < 5: // insert, labeled with probability 1/2
			p := randPoint(rng, in.Dim())
			if rng.Intn(2) == 0 {
				yv := rng.NormFloat64()
				id, err := in.InsertLabeled(p, yv)
				if err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
				if want := m.insert(p, true, yv); id != want {
					t.Fatalf("step %d: id %d want %d", s, id, want)
				}
			} else {
				id, err := in.Insert(p)
				if err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
				if want := m.insert(p, false, 0); id != want {
					t.Fatalf("step %d: id %d want %d", s, id, want)
				}
			}
		case op < 7: // delete a random live unlabeled point (keeps coverage)
			id := rng.Intn(len(m.pts))
			if !m.alive[id] || m.lab[id] {
				continue
			}
			if err := in.Delete(id); err != nil {
				t.Fatalf("step %d delete: %v", s, err)
			}
			m.del(id)
		default: // label or relabel a random live point
			id := rng.Intn(len(m.pts))
			if !m.alive[id] {
				continue
			}
			yv := rng.NormFloat64()
			if err := in.Label(id, yv); err != nil {
				t.Fatalf("step %d label: %v", s, err)
			}
			m.label(id, yv)
		}
		if s%7 == 6 {
			if _, err := in.Refresh(); err != nil {
				t.Fatalf("step %d refresh: %v", s, err)
			}
		}
	}
	if _, err := in.Refresh(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamCompactMatchesFit is the determinism contract: after Compact,
// the streamed state is bitwise-identical to graphssl.Fit on the same
// live point set, for every worker count.
func TestStreamCompactMatchesFit(t *testing.T) {
	const bw = 0.7
	var got [][]float64
	for _, workers := range []int{1, 2, 4} {
		in, m := seedStream(t, 50, 8, 2, bw, workers, 42, Config{})
		driveScript(t, in, m, 99, 60)
		if _, err := in.Compact(); err != nil {
			t.Fatal(err)
		}
		scores := in.Scores()
		want := fitScores(t, m, graphssl.Epanechnikov, bw, workers)
		if !bitwiseEq(scores, want) {
			t.Fatalf("workers=%d: compacted stream differs from batch Fit (max diff %g)",
				workers, maxAbsDiff(scores, want))
		}
		got = append(got, scores)
	}
	for i := 1; i < len(got); i++ {
		if !bitwiseEq(got[0], got[i]) {
			t.Fatal("compacted stream differs across worker counts")
		}
	}
}

// TestStreamRefreshTracksExact checks the in-between state: without any
// compaction, every refreshed solution stays within the refresh
// tolerance of the from-scratch batch solution.
func TestStreamRefreshTracksExact(t *testing.T) {
	const bw = 0.7
	in, m := seedStream(t, 60, 10, 2, bw, 1, 7, Config{RefreshTol: 1e-9, CompactFrac: 100})
	rng := rand.New(rand.NewSource(13))

	for round := 0; round < 6; round++ {
		for k := 0; k < 5; k++ {
			p := randPoint(rng, 2)
			if rng.Intn(3) == 0 {
				yv := rng.NormFloat64()
				id, _ := in.InsertLabeled(p, yv)
				if want := m.insert(p, true, yv); id != want {
					t.Fatal("id drift")
				}
			} else {
				id, _ := in.Insert(p)
				if want := m.insert(p, false, 0); id != want {
					t.Fatal("id drift")
				}
			}
		}
		out, err := in.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if out.Kind != "warm-pcg" {
			t.Fatalf("round %d: structural refresh took %q", round, out.Kind)
		}
		want := fitScores(t, m, graphssl.Epanechnikov, bw, 1)
		if d := maxAbsDiff(in.Scores(), want); d > 1e-6 {
			t.Fatalf("round %d: refreshed solution off by %g", round, d)
		}
	}
	if in.Stats().Compactions != 0 {
		t.Fatalf("unexpected compactions: %+v", in.Stats())
	}
}

// TestStreamLadderKinds exercises each rung: value-only changes take the
// cheap RHS rung, newly labeled batches of any size take warm PCG, and
// every rung reports the verified residual of the solution it accepted.
func TestStreamLadderKinds(t *testing.T) {
	in, m := seedStream(t, 80, 10, 2, 0.7, 1, 3, Config{})

	// Rung 1: change an existing label's value.
	if err := in.Label(2, 5); err != nil {
		t.Fatal(err)
	}
	m.label(2, 5)
	out, err := in.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != "label-values" || out.ValueChanges != 1 {
		t.Fatalf("value rung: %+v", out)
	}
	if out.Residual != in.Residual() {
		t.Fatalf("value rung residual %g, verified %g", out.Residual, in.Residual())
	}

	// Rung 2: label existing unlabeled points, two and then six at once.
	for _, batch := range []struct {
		ids []int
		y   float64
	}{{[]int{20, 30}, 1}, {[]int{40, 45, 50, 55, 60, 65}, -1}} {
		for _, id := range batch.ids {
			if err := in.Label(id, batch.y); err != nil {
				t.Fatal(err)
			}
			m.label(id, batch.y)
		}
		out, err = in.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if out.Kind != "warm-pcg" || out.NewLabels != len(batch.ids) {
			t.Fatalf("warm rung, %d labels: %+v", len(batch.ids), out)
		}
		if out.Residual != in.Residual() {
			t.Fatalf("warm rung residual %g, verified %g", out.Residual, in.Residual())
		}
	}

	// No pending work → "none" without touching the solver.
	out, err = in.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != "none" {
		t.Fatalf("idle refresh: %+v", out)
	}

	// Every rung left the solution at the batch answer.
	want := fitScores(t, m, graphssl.Epanechnikov, 0.7, 1)
	if d := maxAbsDiff(in.Scores(), want); d > 1e-6 {
		t.Fatalf("final solution off by %g", d)
	}

	st := in.Stats()
	if st.LabelRefreshes != 1 || st.WarmRefreshes != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if rep := in.Report(); rep.Refresh == nil || rep.Refresh.Kind != "warm-pcg" {
		t.Fatalf("report: %+v", rep.Refresh)
	}
}

// TestStreamEscalatesToCompact forces the terminal rung two ways: a
// dead-id fraction above CompactFrac, and a refresh tolerance no
// iterative rung can meet.
func TestStreamEscalatesToCompact(t *testing.T) {
	in, m := seedStream(t, 60, 8, 2, 0.7, 1, 5, Config{CompactFrac: 0.05})
	for id := 10; id < 20; id++ {
		if err := in.Delete(id); err != nil {
			t.Fatal(err)
		}
		m.del(id)
	}
	out, err := in.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != "full-refit" || !out.Escalated {
		t.Fatalf("dead-fraction escalation: %+v", out)
	}
	want := fitScores(t, m, graphssl.Epanechnikov, 0.7, 1)
	if !bitwiseEq(in.Scores(), want) {
		t.Fatal("escalated compact differs from batch Fit")
	}
	st := in.Stats()
	if st.Compactions != 1 || st.Escalations != 1 || st.Dead != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// Unreachable tolerance → residual miss → full refit, not an error.
	in2, _ := seedStream(t, 60, 8, 2, 0.7, 1, 5, Config{RefreshTol: 1e-300})
	if err := in2.Label(2, 9); err != nil {
		t.Fatal(err)
	}
	out, err = in2.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != "full-refit" || !out.Escalated {
		t.Fatalf("tolerance escalation: %+v", out)
	}
}

// TestStreamIsolatedInsertSkipsRefit: an unlabeled insert with no
// neighbour fails the refresh's coverage check, and the refresh returns
// core.ErrIsolated without escalating, because the refit would fit the
// same live points with the same labels and fail the same way (as a
// later Compact and graphssl.Fit do). The edits stay pending, and once a
// label reaches the point the refresh succeeds and Compact matches
// graphssl.Fit bitwise.
func TestStreamIsolatedInsertSkipsRefit(t *testing.T) {
	const bw = 0.7
	in, m := seedStream(t, 50, 8, 2, bw, 1, 17, Config{})
	insert := func(p []float64, labeled bool, y float64) {
		t.Helper()
		var err error
		if labeled {
			_, err = in.InsertLabeled(p, y)
		} else {
			_, err = in.Insert(p)
		}
		if err != nil {
			t.Fatal(err)
		}
		m.insert(p, labeled, y)
	}
	insert([]float64{5, 5}, false, 0)
	insert([]float64{0.5, 0.5}, true, 1.5)

	out, err := in.Refresh()
	if !errors.Is(err, core.ErrIsolated) {
		t.Fatalf("refresh with an isolated insert: %v, want core.ErrIsolated", err)
	}
	if out.Escalated || out.Remap != nil {
		t.Fatalf("refresh escalated to a refit that must fail: %+v", out)
	}
	if st := in.Stats(); st.Compactions != 0 || st.Escalations != 0 || st.PendingInserts != 2 {
		t.Fatalf("stats after the failed refresh: %+v", st)
	}
	if _, err := in.Compact(); !errors.Is(err, core.ErrIsolated) {
		t.Fatalf("compact with an isolated insert: %v, want core.ErrIsolated", err)
	}
	x, y, labeled := m.liveSet()
	if _, err := graphssl.Fit(x, y, labeled, graphssl.WithKernel(graphssl.Epanechnikov),
		graphssl.WithBandwidth(bw), graphssl.WithWorkers(1)); !errors.Is(err, graphssl.ErrIsolated) {
		t.Fatalf("batch fit with an isolated point: %v, want graphssl.ErrIsolated", err)
	}

	insert([]float64{5.1, 5}, true, -2)
	if _, err := in.Refresh(); err != nil {
		t.Fatalf("refresh after labeling the isolated point's component: %v", err)
	}
	if _, err := in.Compact(); err != nil {
		t.Fatal(err)
	}
	if want := fitScores(t, m, graphssl.Epanechnikov, bw, 1); !bitwiseEq(in.Scores(), want) {
		t.Fatalf("compacted stream differs from batch Fit (max diff %g)", maxAbsDiff(in.Scores(), want))
	}
}

// TestStreamDeltaRollForward checks the publish path: a snapshot rolled
// forward by TakeDelta/ApplyDelta carries exactly the anchor sequence of
// a fresh snapshot, bitwise.
func TestStreamDeltaRollForward(t *testing.T) {
	in, _ := seedStream(t, 50, 8, 2, 0.7, 1, 21, Config{})
	snap, err := in.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	in.MarkPublished()

	rng := rand.New(rand.NewSource(8))
	for k := 0; k < 6; k++ {
		if _, err := in.InsertLabeled(randPoint(rng, 2), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := in.Refresh(); err != nil {
		t.Fatal(err)
	}

	d, ok := in.TakeDelta()
	if !ok || d.Len() != 6 {
		t.Fatalf("delta: ok=%v len=%d", ok, d.Len())
	}
	rolled, err := snap.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := in.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(rolled.Labeled) != len(fresh.Labeled) {
		t.Fatalf("labeled %d vs %d", len(rolled.Labeled), len(fresh.Labeled))
	}
	// Anchor sequences (coordinates, responses, pinned scores) must match
	// bitwise: that is what makes the rolled-forward served model
	// prediction-identical to one built from the fresh snapshot.
	for i := range rolled.Labeled {
		a, b := rolled.Labeled[i], fresh.Labeled[i]
		if !bitwiseEq(rolled.X[a], fresh.X[b]) {
			t.Fatalf("anchor %d coordinates differ", i)
		}
		if rolled.Y[i] != fresh.Y[i] || rolled.Scores[a] != fresh.Y[i] {
			t.Fatalf("anchor %d response %v/%v scores %v", i, rolled.Y[i], fresh.Y[i], rolled.Scores[a])
		}
	}

	// A second TakeDelta with nothing new yields an empty delta.
	d2, ok := in.TakeDelta()
	if !ok || d2.Len() != 0 {
		t.Fatalf("idle delta: ok=%v len=%d", ok, d2.Len())
	}

	// A relabel breaks appendability until the next full publish.
	if err := in.Label(0, 3.5); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, ok := in.TakeDelta(); ok {
		t.Fatal("delta after relabel should force full republish")
	}
	in.MarkPublished()
	if _, ok := in.TakeDelta(); !ok {
		t.Fatal("publish cursor not reset")
	}

	// A compaction renumbers ids and likewise forces a full republish.
	if _, err := in.InsertLabeled(randPoint(rng, 2), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok := in.TakeDelta(); ok {
		t.Fatal("delta across a compaction should force full republish")
	}
}

func TestStreamValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([][]float64, 20)
	for i := range x {
		x[i] = randPoint(rng, 2)
	}
	y := []float64{1, -1}
	labeled := []int{0, 1}

	if _, err := New(x, y, labeled, Config{Kernel: graphssl.Gaussian, Bandwidth: 0.5}); err == nil {
		t.Fatal("Gaussian kernel accepted")
	}
	if _, err := New(x, y, labeled, Config{Kernel: graphssl.Tricube, Bandwidth: 0}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	in, err := New(x, y, labeled, Config{Kernel: graphssl.Tricube, Bandwidth: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Insert([]float64{1}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := in.InsertLabeled(randPoint(rng, 2), math.NaN()); err == nil {
		t.Fatal("NaN response accepted")
	}
	if err := in.Label(3, math.Inf(1)); err == nil {
		t.Fatal("Inf response accepted")
	}
	if err := in.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := in.Delete(5); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := in.Label(5, 1); err == nil {
		t.Fatal("label of dead id accepted")
	}
	if math.IsNaN(in.ScoreOf(2)) {
		t.Fatal("live refreshed id has no score")
	}
	id, err := in.Insert(randPoint(rng, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(in.ScoreOf(id)) {
		t.Fatal("un-refreshed insert has a score")
	}
}

// TestZeroAllocStreamLabelRefresh is the CI allocation gate for the
// streaming hot path: once buffers are warm, a label-value edit plus its
// Refresh must not allocate.
func TestZeroAllocStreamLabelRefresh(t *testing.T) {
	in, _ := seedStream(t, 150, 12, 2, 0.7, 1, 17, Config{})
	flip := 0.0
	for i := 0; i < 3; i++ {
		flip = 1 - flip
		if err := in.Label(3, flip); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		flip = 1 - flip
		if err := in.Label(3, flip); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Refresh(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm label-value ingest allocates %v times per op, want 0", allocs)
	}
}
