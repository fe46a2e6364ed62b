package graphssl

import (
	"fmt"
	"math"
)

// SnapshotDelta is an appendable increment to a ModelSnapshot: points
// labeled since the snapshot was taken, in labeling order. The serve
// package builds one per ingest batch, and the stream package emits them
// (Ingestor.TakeDelta), so a published model rolls forward without
// republishing every anchor.
type SnapshotDelta struct {
	// X are the new labeled points, Y their responses (aligned).
	X [][]float64
	Y []float64
}

// Len returns the number of points in the delta.
func (d *SnapshotDelta) Len() int { return len(d.X) }

// ApplyDelta returns a new snapshot extending s with the delta's labeled
// points appended at the end. The hard criterion (Lambda = 0) pins each
// labeled point's fitted score to its response, so the appended points
// carry Scores equal to Y and every snapshot invariant holds by
// construction. Soft-criterion snapshots cannot be rolled forward this
// way (their labeled scores are shrunk toward the graph) and are
// rejected.
//
// The receiver is not mutated: shared slices (X rows, Labeled prefix,
// Scores prefix) are reused by reference, appended content is deep-copied.
func (s *ModelSnapshot) ApplyDelta(d *SnapshotDelta) (*ModelSnapshot, error) {
	if d == nil || len(d.X) == 0 {
		return s, nil
	}
	if s.Lambda != 0 {
		return nil, fmt.Errorf("graphssl: delta roll-forward needs the hard criterion (lambda=0), got %v: %w", s.Lambda, ErrParam)
	}
	if len(d.X) != len(d.Y) {
		return nil, fmt.Errorf("graphssl: delta has %d points, %d responses: %w", len(d.X), len(d.Y), ErrParam)
	}
	dim := s.Dim()
	n := len(s.X)
	out := &ModelSnapshot{
		X:         make([][]float64, n, n+len(d.X)),
		Y:         make([]float64, len(s.Y), len(s.Y)+len(d.Y)),
		Labeled:   make([]int, len(s.Labeled), len(s.Labeled)+len(d.X)),
		Scores:    make([]float64, len(s.Scores), len(s.Scores)+len(d.X)),
		Kernel:    s.Kernel,
		Bandwidth: s.Bandwidth,
		KNN:       s.KNN,
		Lambda:    s.Lambda,
	}
	copy(out.X, s.X)
	copy(out.Y, s.Y)
	copy(out.Labeled, s.Labeled)
	copy(out.Scores, s.Scores)
	for i, xi := range d.X {
		if len(xi) != dim {
			return nil, fmt.Errorf("graphssl: delta point %d has dim %d, want %d: %w", i, len(xi), dim, ErrParam)
		}
		for j, v := range xi {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("graphssl: delta point %d coordinate %d is %v: %w", i, j, v, ErrParam)
			}
		}
		if math.IsNaN(d.Y[i]) || math.IsInf(d.Y[i], 0) {
			return nil, fmt.Errorf("graphssl: delta response %d is %v: %w", i, d.Y[i], ErrParam)
		}
		out.X = append(out.X, append([]float64(nil), xi...))
		out.Y = append(out.Y, d.Y[i])
		out.Labeled = append(out.Labeled, n+i)
		out.Scores = append(out.Scores, d.Y[i])
	}
	return out, nil
}
