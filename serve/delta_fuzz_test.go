package serve

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	graphssl "repro"
)

// encodeDelta is decodeDelta's inverse, for seeding: point count, response
// count, then each point as its dimension and raw coordinate bits, then the
// responses' raw bits.
func encodeDelta(d *graphssl.SnapshotDelta) []byte {
	b := []byte{byte(len(d.X)), byte(len(d.Y))}
	for _, xi := range d.X {
		b = append(b, byte(len(xi)))
		for _, v := range xi {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	for _, v := range d.Y {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// decodeDelta reads a delta of 0–8 points, each of dimension 0–4, and 0–8
// responses from raw bytes. Every value is a raw float64 bit pattern, so
// NaN, ±Inf, subnormals and 1e308 all occur; missing bytes read as zero.
func decodeDelta(b []byte) *graphssl.SnapshotDelta {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	float := func() float64 {
		var w [8]byte
		n := copy(w[:], b)
		b = b[n:]
		return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
	}
	d := &graphssl.SnapshotDelta{
		X: make([][]float64, next()%9),
		Y: make([]float64, next()%9),
	}
	for i := range d.X {
		d.X[i] = make([]float64, next()%5)
		for j := range d.X[i] {
			d.X[i][j] = float()
		}
	}
	for i := range d.Y {
		d.Y[i] = float()
	}
	return d
}

// cloneSnapshot deep-copies a snapshot, to detect a receiver's mutation.
func cloneSnapshot(s *graphssl.ModelSnapshot) graphssl.ModelSnapshot {
	c := *s
	c.X = make([][]float64, len(s.X))
	for i, xi := range s.X {
		c.X[i] = slices.Clone(xi)
	}
	c.Y = slices.Clone(s.Y)
	c.Labeled = slices.Clone(s.Labeled)
	c.Scores = slices.Clone(s.Scores)
	return c
}

// samePredictions reports whether two models predict the queries bit for
// bit, with errors at the same queries.
func samePredictions(a, b *Model, qs [][]float64) bool {
	sa, ea := a.PredictBatch(qs)
	sb, eb := b.PredictBatch(qs)
	for i := range qs {
		var errA, errB error
		if ea != nil {
			errA = ea[i]
		}
		if eb != nil {
			errB = eb[i]
		}
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA == nil && math.Float64bits(sa[i]) != math.Float64bits(sb[i]) {
			return false
		}
	}
	return true
}

// FuzzApplyDelta rolls arbitrary deltas onto one hard-criterion
// Epanechnikov model, the kernel stream models use. The snapshot's and the
// model's ApplyDelta must accept or reject together, wrapping ErrParam and
// ErrSnapshot respectively; an accepted roll-forward must carry the Info
// of, and predict bit for bit like, a model built afresh from the rolled
// snapshot; and neither receiver may change.
func FuzzApplyDelta(f *testing.F) {
	x, y, labeled := testData(37, 60, 3, 20)
	res, err := graphssl.Fit(x, y, labeled, graphssl.WithKernel(graphssl.Epanechnikov), graphssl.WithBandwidth(3.5))
	if err != nil {
		f.Fatal(err)
	}
	snap, err := res.Snapshot(x, y)
	if err != nil {
		f.Fatal(err)
	}
	m, err := NewModel(snap)
	if err != nil {
		f.Fatal(err)
	}
	orig := cloneSnapshot(snap)
	origInfo := m.Info()
	base, err := NewModel(&orig)
	if err != nil {
		f.Fatal(err)
	}
	// Fixed queries: in-sample points, points near the seeds' delta, and one
	// far outside every kernel support.
	qs := [][]float64{x[0], x[1], x[30], {0.1, 0.2, 0.3}, {-0.4, 0.5, -0.6}, {0.7, -0.8, 0.9}, {1, 2, 3}, {50, 50, 50}}

	// The deltas of TestModelApplyDeltaBitwise: one good, four bad.
	for _, d := range []*graphssl.SnapshotDelta{
		{X: [][]float64{{0.1, 0.2, 0.3}, {-0.4, 0.5, -0.6}, {0.7, -0.8, 0.9}}, Y: []float64{2.5, -1.5, 0.5}},
		{X: [][]float64{{1, 2}}, Y: []float64{1}},
		{X: [][]float64{{1, 2, math.NaN()}}, Y: []float64{1}},
		{X: [][]float64{{1, 2, 3}}, Y: []float64{math.Inf(1)}},
		{X: [][]float64{{1, 2, 3}, {4, 5, 6}}, Y: []float64{1}},
	} {
		f.Add(encodeDelta(d))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		d := decodeDelta(b)
		rolledSnap, serr := snap.ApplyDelta(d)
		rolled, merr := m.ApplyDelta(d)
		if (serr == nil) != (merr == nil) {
			t.Fatalf("snapshot err %v, model err %v", serr, merr)
		}
		if serr != nil {
			if !errors.Is(serr, graphssl.ErrParam) || !errors.Is(merr, ErrSnapshot) {
				t.Fatalf("rejections untyped: snapshot %v, model %v", serr, merr)
			}
		} else {
			rebuilt, err := NewModel(rolledSnap)
			if err != nil {
				t.Fatalf("rolled snapshot does not build a model: %v", err)
			}
			if got, want := rolled.Info(), rebuilt.Info(); got != want {
				t.Fatalf("info: rolled %+v, rebuilt %+v", got, want)
			}
			if !samePredictions(rolled, rebuilt, qs) {
				t.Fatal("rolled model predicts differently from the rebuilt one")
			}
		}
		if !reflect.DeepEqual(snap, &orig) {
			t.Fatal("snapshot receiver changed")
		}
		if m.Info() != origInfo || !samePredictions(m, base, qs) {
			t.Fatal("model receiver changed")
		}
	})
}
