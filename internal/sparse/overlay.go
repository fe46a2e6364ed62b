package sparse

import (
	"fmt"
)

// overlayEntry is one symmetric patch entry: the column (always a later-
// issued id than the row it patches) and its weight.
type overlayEntry struct {
	col int
	val float64
}

// overlayRow holds the initial adjacency of an appended row: its edges to
// older ids, column-sorted.
type overlayRow struct {
	cols []int
	vals []float64
}

// Overlay is a mutable view over an immutable symmetric CSR: rows and
// edges appended since the base was built live in side structures, and a
// dead mask hides deleted ids. Merge compacts the overlay into a fresh
// CSR over the live ids (in id order), which becomes the natural base for
// the next overlay generation.
//
// The sorted-row invariant is maintained structurally rather than by
// sorting: an appended row's initial columns all precede its own id, and
// the patches later rows add to it carry strictly increasing ids, so every
// logical row is the concatenation of two sorted runs split at the row's
// own id. That makes Merge a linear copy.
//
// An Overlay is not safe for concurrent mutation.
type Overlay struct {
	base *CSR
	n0   int // base dimension; ids < n0 resolve through base rows
	n    int // total ids issued (live + dead)

	dead      []bool
	deadCount int

	own     []overlayRow     // rows n0..n-1: initial edges to older ids
	tails   [][]overlayEntry // per id: edges added by later-appended rows
	tailNNZ int
	ownNNZ  int
}

// NewOverlay starts an overlay generation over a square symmetric base.
// The base is referenced, not copied.
func NewOverlay(base *CSR) (*Overlay, error) {
	if base == nil {
		return nil, fmt.Errorf("sparse: nil overlay base: %w", ErrShape)
	}
	r, c := base.Dims()
	if r != c {
		return nil, fmt.Errorf("sparse: overlay base %dx%d not square: %w", r, c, ErrShape)
	}
	return &Overlay{
		base:  base,
		n0:    r,
		n:     r,
		dead:  make([]bool, r),
		tails: make([][]overlayEntry, r),
	}, nil
}

// Rows returns the total number of ids issued, dead ones included.
func (o *Overlay) Rows() int { return o.n }

// Live returns the number of live ids.
func (o *Overlay) Live() int { return o.n - o.deadCount }

// Dead reports whether id has been deleted.
func (o *Overlay) Dead(id int) bool { return id >= 0 && id < o.n && o.dead[id] }

// PendingNNZ returns the stored entries held outside the base (appended
// rows plus their symmetric patches).
func (o *Overlay) PendingNNZ() int { return o.ownNNZ + o.tailNNZ }

// AppendRow issues the next id and records its symmetric adjacency to
// older live ids. cols must be strictly increasing, in [0, Rows()), and
// live; vals are the matching weights. Both slices are copied. Returns
// the new id.
func (o *Overlay) AppendRow(cols []int, vals []float64) (int, error) {
	if len(cols) != len(vals) {
		return 0, fmt.Errorf("sparse: overlay row %d cols, %d vals: %w", len(cols), len(vals), ErrShape)
	}
	id := o.n
	prev := -1
	for i, c := range cols {
		if c <= prev {
			return 0, fmt.Errorf("sparse: overlay row columns not strictly increasing at %d: %w", i, ErrShape)
		}
		if c >= id {
			return 0, fmt.Errorf("sparse: overlay row column %d >= new id %d: %w", c, id, ErrIndex)
		}
		if o.dead[c] {
			return 0, fmt.Errorf("sparse: overlay row references dead id %d: %w", c, ErrIndex)
		}
		prev = c
	}
	row := overlayRow{
		cols: append([]int(nil), cols...),
		vals: append([]float64(nil), vals...),
	}
	o.own = append(o.own, row)
	o.tails = append(o.tails, nil)
	o.dead = append(o.dead, false)
	for i, c := range cols {
		o.tails[c] = append(o.tails[c], overlayEntry{col: id, val: vals[i]})
	}
	o.ownNNZ += len(cols)
	o.tailNNZ += len(cols)
	o.n++
	return id, nil
}

// Delete marks a live id dead. Its row and every symmetric mirror are
// dropped at the next Merge; until then they are skipped entry by entry.
func (o *Overlay) Delete(id int) error {
	if id < 0 || id >= o.n || o.dead[id] {
		return fmt.Errorf("sparse: overlay delete of dead or unknown id %d: %w", id, ErrIndex)
	}
	o.dead[id] = true
	o.deadCount++
	return nil
}

// AppendedRow returns the edges an appended id was issued with (its
// columns, all older ids, ascending, and their weights), aliasing the
// overlay: callers must not mutate them. Base ids have none.
func (o *Overlay) AppendedRow(id int) (cols []int, vals []float64) {
	if id < o.n0 || id >= o.n {
		return nil, nil
	}
	r := o.own[id-o.n0]
	return r.cols, r.vals
}

// rowRuns returns the two sorted runs making up the logical row of id:
// the head (columns < id for appended rows, < n0 for base rows) and the
// tail (columns > id).
func (o *Overlay) rowRuns(id int) (headCols []int, headVals []float64, tail []overlayEntry) {
	if id < o.n0 {
		cols, vals := o.base.RowNNZ(id)
		return cols, vals, o.tails[id]
	}
	r := o.own[id-o.n0]
	return r.cols, r.vals, o.tails[id]
}

// Merge compacts the overlay into a CSR over the live ids, renumbered
// densely in id order, and returns the new matrix together with ids,
// where ids[newIndex] = old id. The result is bitwise-identical to
// assembling the same live adjacency from scratch: entry values are
// copied, never recomputed.
func (o *Overlay) Merge() (*CSR, []int, error) {
	live := o.Live()
	ids := make([]int, 0, live)
	newIdx := make([]int, o.n)
	for id := 0; id < o.n; id++ {
		if o.dead[id] {
			newIdx[id] = -1
			continue
		}
		newIdx[id] = len(ids)
		ids = append(ids, id)
	}

	indptr := make([]int, live+1)
	nnz := 0
	for k, id := range ids {
		hc, _, tail := o.rowRuns(id)
		cnt := 0
		for _, c := range hc {
			if !o.dead[c] {
				cnt++
			}
		}
		for _, e := range tail {
			if !o.dead[e.col] {
				cnt++
			}
		}
		nnz += cnt
		indptr[k+1] = nnz
	}

	indices := make([]int, nnz)
	data := make([]float64, nnz)
	for k, id := range ids {
		p := indptr[k]
		hc, hv, tail := o.rowRuns(id)
		for i, c := range hc {
			if o.dead[c] {
				continue
			}
			indices[p] = newIdx[c]
			data[p] = hv[i]
			p++
		}
		for _, e := range tail {
			if o.dead[e.col] {
				continue
			}
			indices[p] = newIdx[e.col]
			data[p] = e.val
			p++
		}
	}
	w, err := NewCSR(live, live, indptr, indices, data)
	if err != nil {
		return nil, nil, fmt.Errorf("sparse: overlay merge: %w", err)
	}
	return w, ids, nil
}
