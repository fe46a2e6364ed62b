package stream

import (
	"math"
	"math/rand"
	"testing"

	graphssl "repro"
)

// TestStreamInPlaceMatchesStructural is the stream half of the in-place
// rung's differential test. One ingestor refreshes through Refresh; its
// twin gets the same edits and folds every batch through
// refreshStructural (merge, rebuild, Rebase). Labeled-only batches take
// the in-place rung on the first; mixed batches (an unlabeled insert or a
// delete, with labeled inserts, labels on existing points and value
// changes riding along, the tail's points included) take the structural
// rung on both. Scores, Snapshot and Residual must match bitwise after
// every refresh.
func TestStreamInPlaceMatchesStructural(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := Config{CompactFrac: 100}
		in, m := seedStream(t, 60, 8, 2, 0.7, workers, 31, cfg)
		twin, _ := seedStream(t, 60, 8, 2, 0.7, workers, 31, cfg)
		rng := rand.New(rand.NewSource(32))
		inPlace := 0
		for step := 0; step < 30; step++ {
			labeledOnly := rng.Intn(2) == 0
			var edits []func(*Ingestor) error
			k := 1 + rng.Intn(6)
			for e := 0; e < k; e++ {
				p, yv := randPoint(rng, 2), rng.NormFloat64()
				if labeledOnly || rng.Intn(3) == 0 {
					m.insert(p, true, yv)
					edits = append(edits, func(in *Ingestor) error { _, err := in.InsertLabeled(p, yv); return err })
					continue
				}
				switch rng.Intn(3) {
				case 0:
					m.insert(p, false, 0)
					edits = append(edits, func(in *Ingestor) error { _, err := in.Insert(p); return err })
				case 1: // delete a live unlabeled point
					id := rng.Intn(len(m.pts))
					if !m.alive[id] || m.lab[id] {
						continue
					}
					m.del(id)
					edits = append(edits, func(in *Ingestor) error { return in.Delete(id) })
				default: // label a point or change a label, tail points included
					id := rng.Intn(len(m.pts))
					if !m.alive[id] {
						continue
					}
					m.label(id, yv)
					edits = append(edits, func(in *Ingestor) error { return in.Label(id, yv) })
				}
			}
			if !labeledOnly {
				// At least one structural edit, so neither side takes the
				// label-value rung (which the rebuild does not match bitwise).
				p := randPoint(rng, 2)
				m.insert(p, false, 0)
				edits = append(edits, func(in *Ingestor) error { _, err := in.Insert(p); return err })
			}
			for _, ing := range []*Ingestor{in, twin} {
				for _, edit := range edits {
					if err := edit(ing); err != nil {
						t.Fatalf("workers=%d step %d: %v", workers, step, err)
					}
				}
			}

			graphN, nodes := in.ref.Problem().Graph().N(), len(in.nodes)
			out, err := in.Refresh()
			if err != nil {
				t.Fatalf("workers=%d step %d: %v", workers, step, err)
			}
			if out.Kind != "warm-pcg" || out.Escalated {
				t.Fatalf("workers=%d step %d: %+v", workers, step, out)
			}
			if _, err := twin.refreshStructural(); err != nil {
				t.Fatalf("workers=%d step %d twin: %v", workers, step, err)
			}
			if labeledOnly {
				// No merge: the new points sit in the refresher's tail.
				if in.ref.Problem().Graph().N() != graphN || len(in.nodes) != nodes+k {
					t.Fatalf("workers=%d step %d: labeled-only batch rebuilt the graph", workers, step)
				}
				inPlace++
			}

			if !bitwiseEq(in.Scores(), twin.Scores()) {
				t.Fatalf("workers=%d step %d: scores differ from the rebuild (max diff %g)", workers, step, maxAbsDiff(in.Scores(), twin.Scores()))
			}
			if a, b := in.Residual(), twin.Residual(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("workers=%d step %d: residual %g, rebuild %g", workers, step, a, b)
			}
			got, err := in.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if len(got.X) != len(want.X) || len(got.Labeled) != len(want.Labeled) {
				t.Fatalf("workers=%d step %d: snapshot %d points %d labeled, rebuild %d and %d",
					workers, step, len(got.X), len(got.Labeled), len(want.X), len(want.Labeled))
			}
			for i := range got.X {
				if !bitwiseEq(got.X[i], want.X[i]) {
					t.Fatalf("workers=%d step %d: snapshot point %d differs", workers, step, i)
				}
			}
			for i := range got.Labeled {
				if got.Labeled[i] != want.Labeled[i] {
					t.Fatalf("workers=%d step %d: snapshot labeled[%d] = %d, rebuild %d", workers, step, i, got.Labeled[i], want.Labeled[i])
				}
			}
			if !bitwiseEq(got.Y, want.Y) || !bitwiseEq(got.Scores, want.Scores) {
				t.Fatalf("workers=%d step %d: snapshot responses or scores differ", workers, step)
			}
			for id := range m.pts {
				if a, b := in.ScoreOf(id), twin.ScoreOf(id); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("workers=%d step %d: ScoreOf(%d) = %v, rebuild %v", workers, step, id, a, b)
				}
			}
		}
		if inPlace < 8 {
			t.Fatalf("workers=%d: only %d in-place refreshes", workers, inPlace)
		}

		// The tail folds into the merged graph, and a compaction still
		// matches the batch fit bitwise.
		if _, err := in.Compact(); err != nil {
			t.Fatal(err)
		}
		want := fitScores(t, m, graphssl.Epanechnikov, 0.7, workers)
		if !bitwiseEq(in.Scores(), want) {
			t.Fatalf("workers=%d: compacted stream differs from batch Fit", workers)
		}
	}
}
