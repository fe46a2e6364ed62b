package graphssl

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/randx"
)

// threeBlobs builds three separated clusters; the first nLabeled points
// (interleaved across clusters) are labeled with class ids 0..2.
func threeBlobs(seed int64, perCluster, nLabeled int) (x [][]float64, labels []int, truth []int) {
	rng := randx.New(seed)
	centers := [][2]float64{{-4, 0}, {4, 0}, {0, 5}}
	for i := 0; i < perCluster; i++ {
		for c, ctr := range centers {
			x = append(x, []float64{ctr[0] + rng.Norm()*0.4, ctr[1] + rng.Norm()*0.4})
			truth = append(truth, c)
		}
	}
	return x, truth[:nLabeled], truth
}

func TestFitMulticlassSeparable(t *testing.T) {
	x, labels, truth := threeBlobs(31, 20, 9)
	res, err := FitMulticlass(x, labels, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != 3 {
		t.Fatalf("classes = %v", res.Classes)
	}
	correct := 0
	for i, idx := range res.Unlabeled {
		if res.Predicted[i] == truth[idx] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(res.Unlabeled)); acc < 0.95 {
		t.Fatalf("multiclass accuracy %v", acc)
	}
	if r, c := res.Scores.Dims(); r != len(res.Unlabeled) || c != 3 {
		t.Fatalf("scores dims (%d,%d)", r, c)
	}
}

func TestFitMulticlassWithCMNAndSoft(t *testing.T) {
	x, labels, truth := threeBlobs(33, 15, 9)
	res, err := FitMulticlass(x, labels, nil, true, WithLambda(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda != 0.01 {
		t.Fatal("lambda not recorded")
	}
	correct := 0
	for i, idx := range res.Unlabeled {
		if res.Predicted[i] == truth[idx] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(res.Unlabeled)); acc < 0.9 {
		t.Fatalf("CMN multiclass accuracy %v", acc)
	}
}

// TestFitMulticlassHonoursSolverOptions: the fit's solver options reach
// the per-class solves. Under WithAutoCutoff(1) a 540-unknown fit solves
// each class through the auto chain's CG instead of one shared dense
// factor, so its scores are no longer the dense ones bit for bit but
// agree with them within 1e-8. A WithDiagnostics report gets a solve
// stage.
func TestFitMulticlassHonoursSolverOptions(t *testing.T) {
	x, labels, _ := threeBlobs(41, 200, 60)
	dense, err := FitMulticlass(x, labels, nil, false, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	cg, err := FitMulticlass(x, labels, nil, false, WithWorkers(1), WithAutoCutoff(1), WithDiagnostics(&rep))
	if err != nil {
		t.Fatal(err)
	}
	r, c := dense.Scores.Dims()
	if r != 540 || c != 3 {
		t.Fatalf("scores dims (%d,%d)", r, c)
	}
	same := true
	var worst float64
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			a, b := dense.Scores.At(i, j), cg.Scores.At(i, j)
			same = same && math.Float64bits(a) == math.Float64bits(b)
			worst = math.Max(worst, math.Abs(a-b))
		}
	}
	if same {
		t.Fatal("WithAutoCutoff(1) still returned the dense scores bitwise")
	}
	if worst > 1e-8 {
		t.Fatalf("per-class CG off the dense scores by %g", worst)
	}
	var stages []string
	for _, s := range rep.Stages {
		stages = append(stages, s.Name)
	}
	if !slices.Contains(stages, "solve") || rep.Bandwidth != cg.Bandwidth {
		t.Fatalf("report stages %v, bandwidth %v", stages, rep.Bandwidth)
	}
}

func TestFitMulticlassValidation(t *testing.T) {
	x, labels, _ := threeBlobs(35, 10, 6)
	if _, err := FitMulticlass(nil, labels, nil, false); !errors.Is(err, ErrParam) {
		t.Fatal("empty x must error")
	}
	single := make([]int, len(labels)) // one class only
	if _, err := FitMulticlass(x, single, nil, false); !errors.Is(err, ErrParam) {
		t.Fatal("single class must error")
	}
}

func TestDiagnoseFacade(t *testing.T) {
	x, y := twoClusters(37, 20, 8)
	d, err := Diagnose(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxUnlabeledMassRatio <= 0 || d.MaxUnlabeledMassRatio >= 1 {
		t.Fatalf("mass ratio %v implausible", d.MaxUnlabeledMassRatio)
	}
	if d.MaxHardNWGap < 0 {
		t.Fatal("negative gap")
	}
}

func TestDiagnoseFacadeErrors(t *testing.T) {
	if _, err := Diagnose(nil, nil, nil); !errors.Is(err, ErrParam) {
		t.Fatal("empty must error")
	}
	x := [][]float64{{0}, {0.1}, {100}}
	if _, err := Diagnose(x, []float64{1, 0}, nil, WithKernel(Uniform), WithBandwidth(1)); !errors.Is(err, ErrIsolated) {
		t.Fatal("isolated must error")
	}
}
