package spatial

import (
	"math/rand"
	"sort"
	"testing"
)

// sidePoints generates a deterministic point cloud in [0,1)^dim.
func sidePoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	for i := range x {
		p := make([]float64, dim)
		for d := range p {
			p[d] = rng.Float64()
		}
		x[i] = p
	}
	return x
}

// bruteRadius returns the live ids within r2 of q, ascending.
func sideBruteRadius(pts [][]float64, alive []bool, q []float64, r2 float64) []int {
	var out []int
	for i, p := range pts {
		if !alive[i] {
			continue
		}
		var d2 float64
		for d := range q {
			dv := q[d] - p[d]
			d2 += dv * dv
		}
		if d2 <= r2 {
			out = append(out, i)
		}
	}
	return out
}

// filterExact reduces a candidate superset to the exact radius set,
// ascending, the way graph construction does.
func filterExact(pts [][]float64, cand []int32, q []float64, r2 float64) []int {
	var out []int
	for _, id := range cand {
		p := pts[id]
		var d2 float64
		for d := range q {
			dv := q[d] - p[d]
			d2 += dv * dv
		}
		if d2 <= r2 {
			out = append(out, int(id))
		}
	}
	sort.Ints(out)
	return out
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The side index has one base, the KD-tree; the subtest keeps the case
// named after it.
func TestSideIndexMatchesBrute(t *testing.T) {
	t.Run("kdtree", checkSideIndexMatchesBrute)
}

func checkSideIndexMatchesBrute(t *testing.T) {
	const (
		n0     = 200
		dim    = 3
		radius = 0.2
	)
	rng := rand.New(rand.NewSource(7))
	x := sidePoints(n0, dim, 1)
	s, err := NewSideIndex(x, radius, 0.25, 2)
	if err != nil {
		t.Fatalf("NewSideIndex: %v", err)
	}
	pts := append([][]float64(nil), x...)
	alive := make([]bool, n0)
	for i := range alive {
		alive[i] = true
	}
	r2 := radius * radius
	var buf []int32
	for step := 0; step < 500; step++ {
		switch op := rng.Intn(3); {
		case op == 0: // insert
			p := make([]float64, dim)
			for d := range p {
				p[d] = rng.Float64()
			}
			id, err := s.Insert(p)
			if err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			if id != len(pts) {
				t.Fatalf("step %d: id %d, want %d", step, id, len(pts))
			}
			pts = append(pts, p)
			alive = append(alive, true)
		case op == 1: // delete a random live id
			live := -1
			for tries := 0; tries < 50; tries++ {
				c := rng.Intn(len(pts))
				if alive[c] {
					live = c
					break
				}
			}
			if live < 0 {
				continue
			}
			if err := s.Delete(live); err != nil {
				t.Fatalf("step %d delete %d: %v", step, live, err)
			}
			alive[live] = false
		default: // query
			q := make([]float64, dim)
			for d := range q {
				q[d] = rng.Float64()
			}
			buf = s.Candidates(q, buf)
			for _, id := range buf {
				if !alive[id] {
					t.Fatalf("step %d: dead id %d in candidates", step, id)
				}
			}
			got := filterExact(pts, buf, q, r2)
			want := sideBruteRadius(pts, alive, q, r2)
			if !eqInts(got, want) {
				t.Fatalf("step %d: radius set mismatch\ngot  %v\nwant %v", step, got, want)
			}
		}
	}
	if s.Rebuilds() < 2 {
		t.Fatalf("expected amortized rebuilds over 500 mutations, got %d", s.Rebuilds())
	}
	if s.Live() != countLive(alive) {
		t.Fatalf("live count %d, want %d", s.Live(), countLive(alive))
	}
}

func countLive(alive []bool) int {
	n := 0
	for _, a := range alive {
		if a {
			n++
		}
	}
	return n
}

func TestSideIndexRebuildPreservesIDs(t *testing.T) {
	x := sidePoints(64, 2, 3)
	s, err := NewSideIndex(x, 0.3, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Force enough churn for several rebuilds; ids must stay slice
	// positions throughout.
	ids := make([]int, 0, 64)
	for i := 0; i < 64; i++ {
		p := []float64{float64(i) * 0.01, 0.5}
		id, err := s.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if got := s.Point(id); &got[0] != &p[0] {
			t.Fatalf("insert %d: point not retained by reference", i)
		}
	}
	for i, id := range ids {
		if id != 64+i {
			t.Fatalf("ids not dense: got %d want %d", id, 64+i)
		}
	}
	if s.Rebuilds() < 2 {
		t.Fatalf("expected rebuilds, got %d", s.Rebuilds())
	}
	if err := s.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ids[0]); err == nil {
		t.Fatal("double delete succeeded")
	}
	if s.Alive(ids[0]) {
		t.Fatal("deleted id still alive")
	}
}

func TestSideIndexParamErrors(t *testing.T) {
	x := sidePoints(10, 3, 4)
	if _, err := NewSideIndex(x, 0, 0, 1); err == nil {
		t.Fatal("zero radius accepted")
	}
	s, err := NewSideIndex(x, 0.5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert([]float64{1, 2}); err == nil {
		t.Fatal("dim-mismatched insert accepted")
	}
	if err := s.Delete(99); err == nil {
		t.Fatal("delete of unknown id accepted")
	}
}
