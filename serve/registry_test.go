package serve

import (
	"errors"
	"strings"
	"sync"
	"testing"

	graphssl "repro"
)

// smallModel builds a trivial servable model for registry tests.
func smallModel(t *testing.T) *Model {
	t.Helper()
	snap := &graphssl.ModelSnapshot{
		X:         [][]float64{{0, 0}, {1, 1}, {2, 2}},
		Y:         []float64{1, 0},
		Labeled:   []int{0, 2},
		Scores:    []float64{1, 0.5, 0},
		Kernel:    graphssl.Gaussian,
		Bandwidth: 1,
	}
	m, err := NewModel(snap)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRegistryVersioning(t *testing.T) {
	var r Registry
	m := smallModel(t)
	if r.Len() != 0 {
		t.Fatalf("fresh registry has %d entries", r.Len())
	}
	if _, err := r.Load("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load missing: %v", err)
	}
	e1, err := r.Store("a", m)
	if err != nil || e1.Version != 1 {
		t.Fatalf("first store: %+v, %v", e1, err)
	}
	e2, err := r.Store("a", smallModel(t))
	if err != nil || e2.Version != 2 {
		t.Fatalf("replace: %+v, %v", e2, err)
	}
	got, err := r.Load("a")
	if err != nil || got.Version != 2 || got.Model != e2.Model {
		t.Fatalf("load after swap: %+v, %v", got, err)
	}
	// Old entry keeps serving for holders.
	if e1.Model == nil || e1.Version != 1 {
		t.Fatalf("old entry mutated: %+v", e1)
	}
	if _, err := r.Store("b", m); err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, e := range r.Entries() {
		names = append(names, e.Name)
	}
	if strings.Join(names, ",") != "a,b" {
		t.Fatalf("entries = %v", names)
	}
	if err := r.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
}

// TestRegistryVersionMonotonicAcrossDelete pins the property the prediction
// cache depends on: a name's versions never restart after Delete, so one
// (name, version) pair can never identify two different models.
func TestRegistryVersionMonotonicAcrossDelete(t *testing.T) {
	var r Registry
	e, err := r.Store("a", smallModel(t))
	if err != nil || e.Version != 1 {
		t.Fatalf("store: %+v, %v", e, err)
	}
	if err := r.Delete("a"); err != nil {
		t.Fatal(err)
	}
	e, err = r.Store("a", smallModel(t))
	if err != nil || e.Version != 2 {
		t.Fatalf("store after delete: %+v, %v — version must not restart at 1", e, err)
	}
	if err := r.Delete("a"); err != nil {
		t.Fatal(err)
	}
	e, err = r.Store("a", smallModel(t))
	if err != nil || e.Version != 3 {
		t.Fatalf("second delete/store cycle: %+v, %v", e, err)
	}
	if err := r.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("len = %d", r.Len())
	}

	// Interleaved create/delete churn over two names: each name's versions
	// keep climbing, and no (name, version) pair is ever handed out twice.
	last := map[string]int64{"a": 3}
	seen := map[Entry]bool{}
	for round := 0; round < 4; round++ {
		for _, name := range []string{"a", "b", "a"} {
			e, err := r.Store(name, smallModel(t))
			if err != nil {
				t.Fatal(err)
			}
			if e.Version <= last[name] {
				t.Fatalf("round %d: %q version %d after %d", round, name, e.Version, last[name])
			}
			key := Entry{Name: e.Name, Version: e.Version}
			if seen[key] {
				t.Fatalf("round %d: (%q, %d) assigned twice", round, name, e.Version)
			}
			seen[key] = true
			last[name] = e.Version
		}
		if err := r.Delete("a"); err != nil {
			t.Fatal(err)
		}
		if round%2 == 1 {
			if err := r.Delete("b"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if r.Len() != 0 {
		t.Fatalf("len after churn = %d", r.Len())
	}
}

func TestRegistryNameValidation(t *testing.T) {
	var r Registry
	m := smallModel(t)
	for _, name := range []string{"", ".hidden", "a b", "a/b", "a\n", strings.Repeat("x", maxNameLen+1)} {
		if _, err := r.Store(name, m); !errors.Is(err, ErrName) {
			t.Fatalf("name %q: %v", name, err)
		}
	}
	for _, name := range []string{"a", "model-v2.1", "A_B", strings.Repeat("x", maxNameLen)} {
		if _, err := r.Store(name, m); err != nil {
			t.Fatalf("name %q: %v", name, err)
		}
	}
	if _, err := r.Store("ok", nil); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("nil model: %v", err)
	}
}

// TestRegistryConcurrentSwap hammers Load from many readers while writers
// hot-swap and delete; run under -race this checks the lock-free read path.
func TestRegistryConcurrentSwap(t *testing.T) {
	var r Registry
	m := smallModel(t)
	if _, err := r.Store("hot", m); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, err := r.Load("hot")
				if err == nil && (e.Model == nil || e.Version < 1) {
					panic("torn entry")
				}
				r.Entries()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := r.Store("hot", m); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			_ = r.Delete("hot")
			if _, err := r.Store("hot", m); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	e, err := r.Load("hot")
	if err != nil {
		t.Fatal(err)
	}
	if e.Version < 1 {
		t.Fatalf("final version %d", e.Version)
	}
}
