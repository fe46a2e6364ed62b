package spatial

import (
	"fmt"
	"math"
)

// DefaultRebuildFrac is the side-buffer fraction of the base size that
// triggers an amortized base rebuild. At 0.25 a rebuild costs O(n log n)
// every Ω(n) mutations, so the amortized per-mutation cost stays
// O(log n) while the side region never grows past a quarter of the base.
const DefaultRebuildFrac = 0.25

// SideIndex is a mutable fixed-radius index: an immutable base KD-tree
// over a snapshot of the points, plus a buffered side region holding
// points inserted since the last rebuild and an alive mask masking
// deletions. Queries merge the base's radius set with a scan of the
// (bounded) side region; once the side region plus the accumulated dead
// count exceeds rebuildFrac of the base size the base is rebuilt over the
// live set, restoring pure-base query cost.
//
// Point identifiers are stable for the life of the index: Insert returns
// the next dense id, Delete retires one, and ids are never reused. The
// index retains references to the inserted point slices; callers must
// not mutate them afterwards.
//
// The index is not safe for concurrent mutation; concurrent Candidates
// calls are safe between mutations.
type SideIndex struct {
	dim         int
	r2          float64 // squared support radius of queries
	workers     int
	rebuildFrac float64

	pts   [][]float64
	alive []bool
	live  int

	baseN int // pts[:baseN] are covered by the base index
	tree  *KDTree

	churn    int // inserts + deletes since the last rebuild
	rebuilds int
}

// NewSideIndex builds a mutable radius index over x with the given
// support radius. radius must be positive and finite (streaming
// maintenance needs compact support — unbounded kernels would connect
// every pair). rebuildFrac <= 0 selects
// DefaultRebuildFrac. The initial points are retained by reference.
func NewSideIndex(x [][]float64, radius float64, rebuildFrac float64, workers int) (*SideIndex, error) {
	dim, err := checkPoints(x)
	if err != nil {
		return nil, err
	}
	if !(radius > 0) || math.IsInf(radius, 1) {
		return nil, fmt.Errorf("spatial: side index radius %v: %w", radius, ErrParam)
	}
	if rebuildFrac <= 0 {
		rebuildFrac = DefaultRebuildFrac
	}
	if workers < 1 {
		workers = 1
	}
	s := &SideIndex{
		dim:         dim,
		r2:          radius * radius,
		workers:     workers,
		rebuildFrac: rebuildFrac,
		pts:         append([][]float64(nil), x...),
		alive:       make([]bool, len(x)),
		live:        len(x),
	}
	for i := range s.alive {
		s.alive[i] = true
	}
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}

// N returns the total number of ids ever issued (live + dead).
func (s *SideIndex) N() int { return len(s.pts) }

// Live returns the number of live points.
func (s *SideIndex) Live() int { return s.live }

// BaseN returns the prefix length covered by the base index.
func (s *SideIndex) BaseN() int { return s.baseN }

// Rebuilds returns how many amortized base rebuilds have run.
func (s *SideIndex) Rebuilds() int { return s.rebuilds }

// Alive reports whether id is live.
func (s *SideIndex) Alive(id int) bool {
	return id >= 0 && id < len(s.alive) && s.alive[id]
}

// Point returns the coordinates of id (dead ids keep theirs until the
// next rebuild compacts nothing — points are never freed, only masked).
func (s *SideIndex) Point(id int) []float64 { return s.pts[id] }

// Insert adds a point and returns its id. The slice is retained by
// reference. The base index is rebuilt when the side buffer exceeds the
// rebuild fraction.
func (s *SideIndex) Insert(p []float64) (int, error) {
	if len(p) != s.dim {
		return 0, fmt.Errorf("spatial: insert dim %d, want %d: %w", len(p), s.dim, ErrParam)
	}
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("spatial: non-finite insert coordinate: %w", ErrParam)
		}
	}
	id := len(s.pts)
	s.pts = append(s.pts, p)
	s.alive = append(s.alive, true)
	s.live++
	s.churn++
	if err := s.maybeRebuild(); err != nil {
		return 0, err
	}
	return id, nil
}

// Delete retires a live id. The id is never reused.
func (s *SideIndex) Delete(id int) error {
	if id < 0 || id >= len(s.pts) || !s.alive[id] {
		return fmt.Errorf("spatial: delete of dead or unknown id %d: %w", id, ErrParam)
	}
	s.alive[id] = false
	s.live--
	s.churn++
	return s.maybeRebuild()
}

// Candidates appends to buf a superset of the live ids within the
// support radius of q (ids whose exact squared distance to q is at most
// radius²; extra ids farther away may be included). The result is
// unsorted and never contains dead ids. buf is reused when it has
// capacity.
func (s *SideIndex) Candidates(q []float64, buf []int32) []int32 {
	buf = buf[:0]
	for _, id := range s.tree.Radius(q, -1, s.r2, nil) {
		if s.alive[id] {
			buf = append(buf, id)
		}
	}
	// Side region: every live point past the base prefix is a candidate.
	// The region is bounded by rebuildFrac·baseN, so the scan stays a
	// constant fraction of a base query.
	for id := s.baseN; id < len(s.pts); id++ {
		if s.alive[id] {
			buf = append(buf, int32(id))
		}
	}
	return buf
}

// maybeRebuild rebuilds the base once accumulated churn (side inserts
// plus deletions anywhere) exceeds the rebuild fraction of the base.
func (s *SideIndex) maybeRebuild() error {
	if float64(s.churn) > s.rebuildFrac*float64(s.baseN)+1 {
		return s.rebuild()
	}
	return nil
}

// Rebuild forces an immediate base rebuild over all current points.
func (s *SideIndex) Rebuild() error { return s.rebuild() }

func (s *SideIndex) rebuild() error {
	// The base indexes the full pts slice (dead ids included — they are
	// filtered at query time). Indexing dead points costs memory
	// proportional to churn but keeps ids identical to slice positions,
	// which is what makes overlay column ids line up with spatial ids.
	t, err := NewKDTree(s.pts, s.workers)
	if err != nil {
		return err
	}
	s.tree = t
	s.baseN = len(s.pts)
	s.churn = 0
	s.rebuilds++
	return nil
}
