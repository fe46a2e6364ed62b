package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/randx"
	"repro/internal/stats"
	"repro/internal/synth"
)

// DiagConfig drives the consistency-mechanism experiment: it tracks the
// quantities from the proof of Theorem II.1 — the unlabeled-mass ratio that
// bounds g_{n+a} (≤ mM/(n h^d) there) and the empirical gap between the
// hard criterion and the Nadaraya–Watson estimator — as n grows with m
// fixed. Both must shrink toward zero, which is exactly how the paper
// proves consistency.
type DiagConfig struct {
	// SweepN is the labeled-size grid; M the fixed unlabeled size.
	SweepN []int
	M      int
	// Reps is the replication count.
	Reps int
	// Seed seeds the experiment.
	Seed int64
}

// DiagDefaultConfig returns the standard diagnostics sweep.
func DiagDefaultConfig(reps int, seed int64) DiagConfig {
	return DiagConfig{
		SweepN: []int{30, 100, 300, 900},
		M:      30,
		Reps:   reps,
		Seed:   seed,
	}
}

// DiagRow aggregates the proof quantities at one grid point.
type DiagRow struct {
	N int
	// MassRatio is the mean MaxUnlabeledMassRatio (the g-term bound).
	MassRatio float64
	// HardNWGap is the mean MaxHardNWGap.
	HardNWGap float64
	// ContractionRate is the mean spectral radius of D22⁻¹W22 (the
	// tiny-elements operator from the proof).
	ContractionRate float64
	Reps            int
}

func (c *DiagConfig) validate() error {
	if len(c.SweepN) == 0 || c.M < 1 {
		return fmt.Errorf("experiments: diag grid: %w", ErrParam)
	}
	for _, n := range c.SweepN {
		if n < 2 {
			return fmt.Errorf("experiments: diag n=%d: %w", n, ErrParam)
		}
	}
	if c.Reps < 1 {
		return fmt.Errorf("experiments: diag reps=%d: %w", c.Reps, ErrParam)
	}
	return nil
}

// RunDiag executes the diagnostics sweep.
func RunDiag(cfg DiagConfig) ([]DiagRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rows := make([]DiagRow, 0, len(cfg.SweepN))
	root := randx.New(cfg.Seed)
	for _, n := range cfg.SweepN {
		var massAcc, gapAcc, rhoAcc stats.Welford
		rng := root.Split()
		for rep := 0; rep < cfg.Reps; rep++ {
			repRng := rng.Split()
			ds, err := synth.Generate(repRng, synth.Model1, n, cfg.M)
			if err != nil {
				return nil, err
			}
			h, err := kernel.PaperBandwidth(n, synth.Dim)
			if err != nil {
				return nil, err
			}
			k, err := kernel.New(kernel.Gaussian, h)
			if err != nil {
				return nil, err
			}
			builder, err := graph.NewBuilder(k)
			if err != nil {
				return nil, err
			}
			g, err := builder.Build(ds.X)
			if err != nil {
				return nil, err
			}
			p, err := core.NewProblemLabeledFirst(g, ds.YLabeled())
			if err != nil {
				return nil, err
			}
			d, err := core.Diagnose(p)
			if err != nil {
				return nil, err
			}
			massAcc.Add(d.MaxUnlabeledMassRatio)
			gapAcc.Add(d.MaxHardNWGap)
			sys, err := core.BuildPropagationSystem(p)
			if err != nil {
				return nil, err
			}
			rho, err := core.ContractionRate(sys)
			if err != nil {
				return nil, err
			}
			rhoAcc.Add(rho)
		}
		rows = append(rows, DiagRow{
			N:               n,
			MassRatio:       massAcc.Mean(),
			HardNWGap:       gapAcc.Mean(),
			ContractionRate: rhoAcc.Mean(),
			Reps:            massAcc.N(),
		})
	}
	return rows, nil
}
