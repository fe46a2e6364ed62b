package sparse

import "testing"

// FuzzCOOToCSR checks ToCSR and Transpose against a dense accumulation. The
// input decodes to an r×c COO stream (r, c ≤ 16) of (i, j, v) triples with
// small-integer values, so every summation order is exact: the values must
// match, an entry must be stored iff some nonzero Add hit it, and columns
// must strictly increase in every row (NewCSR accepts the arrays).
func FuzzCOOToCSR(f *testing.F) {
	f.Add([]byte{3, 3, 0, 0, 5, 2, 1, 250, 0, 0, 251, 1, 2, 0, 2, 0, 7})
	f.Add([]byte{0, 15})
	f.Add([]byte{15, 0, 14, 0, 1, 3, 0, 255, 14, 0, 255})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		r, c := 1+int(b[0]%16), 1+int(b[1]%16)
		coo := NewCOO(r, c)
		dense := make([]float64, r*c)
		hit := make([]bool, r*c)
		for b = b[2:]; len(b) >= 3; b = b[3:] {
			i, j, v := int(b[0])%r, int(b[1])%c, float64(int8(b[2]))
			if err := coo.Add(i, j, v); err != nil {
				t.Fatal(err)
			}
			dense[i*c+j] += v
			hit[i*c+j] = hit[i*c+j] || v != 0
		}

		m := coo.ToCSR()
		if _, err := NewCSR(r, c, m.indptr, m.indices, m.data); err != nil {
			t.Fatalf("ToCSR arrays rejected: %v", err)
		}
		for i := 0; i < r; i++ {
			cols, vals := m.RowNNZ(i)
			for k, j := range cols {
				if !hit[i*c+j] || vals[k] != dense[i*c+j] {
					t.Fatalf("(%d,%d) = %v, want %v (hit %v)", i, j, vals[k], dense[i*c+j], hit[i*c+j])
				}
			}
		}
		hits, nonzero := 0, 0
		for k := range hit {
			if hit[k] {
				hits++
				if dense[k] != 0 {
					nonzero++
				}
			}
		}
		if m.NNZ() != hits {
			t.Fatalf("ToCSR stores %d entries, %d coordinates were hit", m.NNZ(), hits)
		}

		tr := m.Transpose()
		if tr.rows != c || tr.cols != r {
			t.Fatalf("transpose dims %dx%d, want %dx%d", tr.rows, tr.cols, c, r)
		}
		if _, err := NewCSR(c, r, tr.indptr, tr.indices, tr.data); err != nil {
			t.Fatalf("Transpose arrays rejected: %v", err)
		}
		if tr.NNZ() != nonzero {
			t.Fatalf("transpose stores %d entries, want %d nonzeros", tr.NNZ(), nonzero)
		}
		for j := 0; j < c; j++ {
			cols, vals := tr.RowNNZ(j)
			for k, i := range cols {
				if vals[k] != dense[i*c+j] {
					t.Fatalf("transpose (%d,%d) = %v, want %v", j, i, vals[k], dense[i*c+j])
				}
			}
		}
	})
}
