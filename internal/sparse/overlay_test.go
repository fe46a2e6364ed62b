package sparse

import (
	"math/rand"
	"testing"
)

// denseSym builds a random symmetric adjacency (zero diagonal) as a dense
// matrix for reference.
func denseSym(n int, density float64, rng *rand.Rand) [][]float64 {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				v := rng.Float64() + 0.1
				a[i][j], a[j][i] = v, v
			}
		}
	}
	return a
}

// csrFromDense assembles a CSR from a dense matrix, skipping zeros.
func csrFromDense(a [][]float64) *CSR {
	n := len(a)
	indptr := make([]int, n+1)
	var indices []int
	var data []float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a[i][j] != 0 {
				indices = append(indices, j)
				data = append(data, a[i][j])
			}
		}
		indptr[i+1] = len(indices)
	}
	m, err := NewCSR(n, n, indptr, indices, data)
	if err != nil {
		panic(err)
	}
	return m
}

func TestOverlayMergeMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n0 = 40
	dense := denseSym(n0, 0.2, rng)
	base := csrFromDense(dense)
	o, err := NewOverlay(base)
	if err != nil {
		t.Fatal(err)
	}

	alive := make([]bool, n0)
	for i := range alive {
		alive[i] = true
	}

	// Random interleaving of appends and deletes, mirrored on the dense
	// reference.
	for step := 0; step < 120; step++ {
		if rng.Float64() < 0.7 {
			id := len(dense)
			var cols []int
			var vals []float64
			for c := 0; c < id; c++ {
				if alive[c] && rng.Float64() < 0.15 {
					cols = append(cols, c)
					vals = append(vals, rng.Float64()+0.1)
				}
			}
			got, err := o.AppendRow(cols, vals)
			if err != nil {
				t.Fatalf("step %d append: %v", step, err)
			}
			if got != id {
				t.Fatalf("step %d: id %d want %d", step, got, id)
			}
			for i := range dense {
				dense[i] = append(dense[i], 0)
			}
			row := make([]float64, id+1)
			for i, c := range cols {
				row[c] = vals[i]
				dense[c][id] = vals[i]
			}
			dense = append(dense, row)
			alive = append(alive, true)
		} else {
			id := rng.Intn(len(dense))
			if !alive[id] {
				continue
			}
			if err := o.Delete(id); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			alive[id] = false
		}
	}

	w, ids, err := o.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if w.Rows() != o.Live() || len(ids) != o.Live() {
		t.Fatalf("merged dims %d, ids %d, live %d", w.Rows(), len(ids), o.Live())
	}

	// Reference: compact the dense matrix over live ids in order.
	var liveIds []int
	for id, a := range alive {
		if a {
			liveIds = append(liveIds, id)
		}
	}
	for k, id := range liveIds {
		if ids[k] != id {
			t.Fatalf("ids[%d]=%d want %d", k, ids[k], id)
		}
	}
	for a, ia := range liveIds {
		for b, ib := range liveIds {
			if got, want := w.At(a, b), dense[ia][ib]; got != want {
				t.Fatalf("W[%d,%d]=%v want %v", a, b, got, want)
			}
		}
	}
	if !w.IsSymmetric(0) {
		t.Fatal("merged matrix not exactly symmetric")
	}

	// The merged matrix must be a valid base for the next generation.
	o2, err := NewOverlay(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o2.Merge(); err != nil {
		t.Fatal(err)
	}
}

func TestOverlayValidation(t *testing.T) {
	base := csrFromDense(denseSym(5, 0.5, rand.New(rand.NewSource(2))))
	o, err := NewOverlay(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.AppendRow([]int{0, 0}, []float64{1, 1}); err == nil {
		t.Fatal("duplicate columns accepted")
	}
	if _, err := o.AppendRow([]int{2, 1}, []float64{1, 1}); err == nil {
		t.Fatal("unsorted columns accepted")
	}
	if _, err := o.AppendRow([]int{5}, []float64{1}); err == nil {
		t.Fatal("self/future column accepted")
	}
	if _, err := o.AppendRow([]int{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := o.Delete(9); err == nil {
		t.Fatal("delete of unknown id accepted")
	}
	if err := o.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(3); err == nil {
		t.Fatal("double delete accepted")
	}
	if _, err := o.AppendRow([]int{3}, []float64{1}); err == nil {
		t.Fatal("edge to dead id accepted")
	}
	if o.Live() != 4 {
		t.Fatalf("live %d want 4", o.Live())
	}
	id, err := o.AppendRow([]int{1, 4}, []float64{0.5, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if cols, vals := o.AppendedRow(id); len(cols) != 2 || cols[1] != 4 || vals[0] != 0.5 {
		t.Fatalf("AppendedRow(%d) = %v %v", id, cols, vals)
	}
	if cols, _ := o.AppendedRow(1); cols != nil {
		t.Fatal("a base id has an appended row")
	}
	if cols, _ := o.AppendedRow(id + 1); cols != nil {
		t.Fatal("an unissued id has an appended row")
	}
}

func TestOverlayEmptyBase(t *testing.T) {
	// A zero-row base still supports append-only growth.
	empty, err := NewCSR(0, 0, []int{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOverlay(empty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.AppendRow(nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AppendRow([]int{0}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	w, ids, err := o.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || w.At(0, 1) != 2 || w.At(1, 0) != 2 {
		t.Fatalf("unexpected merge: ids=%v w01=%v", ids, w.At(0, 1))
	}
}
