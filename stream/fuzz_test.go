package stream

import (
	"errors"
	"testing"

	graphssl "repro"
	"repro/internal/core"
)

// FuzzStreamEquivalence drives an Ingestor with a byte-encoded random
// interleaving of inserts, deletes, labels, and refreshes, then compacts
// and asserts the streamed state is bitwise-identical to graphssl.Fit on
// the same live point set — the subsystem's determinism contract. Edit
// scripts that leave the point set unfittable (isolated unlabeled
// components, no labeled points, nothing unlabeled) must fail both
// paths. A refresh that fails with core.ErrIsolated skips the refit, so
// graphssl.Fit on the live set at that moment must fail with
// graphssl.ErrIsolated.
func FuzzStreamEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x41, 0x92, 0x17, 0x63, 0xe8, 0x2a, 0x7f})
	f.Add([]byte{0x81, 0x10, 0x81, 0x20, 0x42, 0x05, 0xc3, 0x30, 0x00, 0x99})
	f.Add([]byte{0x42, 0x00, 0x42, 0x01, 0x42, 0x02, 0x42, 0x03, 0x00, 0xff})
	f.Add([]byte{0xc0, 0x00, 0x81, 0x50, 0x42, 0x0b, 0x00, 0x10, 0xc1, 0x01, 0x81, 0x60})
	// Labeled inserts only, with refreshes between batches: every refresh
	// takes the in-place rung and grows the refresher's tail.
	f.Add([]byte{0x45, 0x12, 0x50, 0x34, 0xc1, 0x00, 0x61, 0x56, 0x4a, 0x78, 0x52, 0x9a, 0xc1, 0x00, 0x7f, 0xbc, 0xc1, 0x00})
	f.Add([]byte{0x41, 0x11, 0xc1, 0x00, 0x42, 0x22, 0xc1, 0x00, 0x43, 0x33, 0x44, 0x44, 0x45, 0x55, 0xc1, 0x00})
	// A tail, then a relabel of a tail point and a delete, each of which
	// must merge it.
	f.Add([]byte{0x48, 0x27, 0x57, 0x72, 0xc1, 0x00, 0xc4, 0x10, 0xc1, 0x00, 0x66, 0x3c, 0xc1, 0x00, 0x80, 0x06, 0xc1, 0x00})
	// Delete the seed points within a bandwidth of the corner (1, 1),
	// insert an isolated unlabeled point there, then a labeled batch and a
	// refresh (which fails with core.ErrIsolated), then a labeled insert
	// beside the isolated point and a refresh (which succeeds).
	f.Add([]byte{
		0x80, 0x06, 0x80, 0x07, 0x80, 0x09, 0x80, 0x0a, 0x80, 0x0b, 0x80, 0x0d, 0x80, 0x0e, 0x80, 0x0f,
		0x00, 0xff,
		0x45, 0x23, 0x50, 0x14, 0xc1, 0x00,
		0x4a, 0xee, 0xc1, 0x00,
	})

	f.Fuzz(func(t *testing.T, script []byte) {
		const (
			bw  = 0.8
			dim = 2
		)
		m := &mirror{}
		// Deterministic well-spread seed set: a small grid with the four
		// corners labeled.
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				m.insert([]float64{float64(i) / 3, float64(j) / 3}, false, 0)
			}
		}
		y := []float64{1, -1, 2, -2}
		labeled := []int{0, 3, 12, 15}
		for k, id := range labeled {
			m.lab[id] = true
			m.y[id] = y[k]
			m.seq = append(m.seq, id)
		}
		in, err := New(m.pts, y, labeled, Config{
			Kernel: graphssl.Tricube, Bandwidth: bw, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Interpret the script two bytes per op: the first selects the
		// operation, the second its operand.
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			switch op >> 6 {
			case 0: // insert unlabeled
				p := []float64{float64(arg&0x0f) / 15, float64(arg>>4) / 15}
				id, err := in.Insert(p)
				if err != nil {
					t.Fatal(err)
				}
				if want := m.insert(p, false, 0); id != want {
					t.Fatalf("id %d want %d", id, want)
				}
			case 1: // insert labeled
				p := []float64{float64(arg&0x0f) / 15, float64(arg>>4) / 15}
				yv := float64(int(op&0x3f) - 32)
				id, err := in.InsertLabeled(p, yv)
				if err != nil {
					t.Fatal(err)
				}
				if want := m.insert(p, true, yv); id != want {
					t.Fatalf("id %d want %d", id, want)
				}
			case 2: // delete
				id := int(arg) % len(m.pts)
				if !m.alive[id] {
					continue
				}
				if err := in.Delete(id); err != nil {
					t.Fatal(err)
				}
				m.del(id)
			default: // label / relabel, or refresh when op&1 set
				if op&1 == 1 {
					// Refresh may legitimately fail (e.g. an isolated
					// unlabeled insert); pending state is retained, so a
					// later edit can repair it and Compact re-verifies. A
					// successful refresh may escalate to a compaction,
					// renumbering ids — mirror the remap.
					out, err := in.Refresh()
					if err == nil && out.Remap != nil {
						m.applyRemap(out.Remap)
					}
					// An isolated component fails the refresh without
					// the refit, which must then fail the same way.
					if errors.Is(err, core.ErrIsolated) {
						x, yy, lab := m.liveSet()
						if _, ferr := graphssl.Fit(x, yy, lab,
							graphssl.WithKernel(graphssl.Tricube),
							graphssl.WithBandwidth(bw),
							graphssl.WithWorkers(1)); !errors.Is(ferr, graphssl.ErrIsolated) {
							t.Fatalf("refresh failed with %v but batch fit err=%v", err, ferr)
						}
					}
					continue
				}
				id := int(arg) % len(m.pts)
				if !m.alive[id] {
					continue
				}
				yv := float64(int(op&0x3e) - 30)
				if err := in.Label(id, yv); err != nil {
					t.Fatal(err)
				}
				m.label(id, yv)
			}
		}

		_, cerr := in.Compact()
		x, yy, lab := m.liveSet()
		var want []float64
		var ferr error
		if len(x) == 0 {
			ferr = graphssl.ErrParam
		} else {
			res, err := graphssl.Fit(x, yy, lab,
				graphssl.WithKernel(graphssl.Tricube),
				graphssl.WithBandwidth(bw),
				graphssl.WithWorkers(1))
			if err != nil {
				ferr = err
			} else {
				want = res.Scores
			}
		}
		if (cerr == nil) != (ferr == nil) {
			t.Fatalf("stream compact err=%v but batch fit err=%v", cerr, ferr)
		}
		if cerr != nil {
			return // both paths reject the same unfittable state
		}
		got := in.Scores()
		if !bitwiseEq(got, want) {
			t.Fatalf("compacted stream differs from batch Fit (max diff %g, n=%d)",
				maxAbsDiff(got, want), len(got))
		}
	})
}
