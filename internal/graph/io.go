package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// WriteEdgeList serializes the graph as a plain-text weighted edge list:
// a header line "nodes N" followed by one "i j w" line per undirected edge
// (i < j), plus "loop i w" lines for self-loops. The format round-trips
// through ReadEdgeList and is easy to consume from other tools.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "nodes %d\n", g.N()); err != nil {
		return err
	}
	for i := 0; i < g.N(); i++ {
		cols, vals := g.w.RowNNZ(i)
		for k, j := range cols {
			if vals[k] == 0 {
				continue
			}
			switch {
			case j == i:
				if _, err := fmt.Fprintf(bw, "loop %d %s\n", i, formatWeight(vals[k])); err != nil {
					return err
				}
			case j > i:
				if _, err := fmt.Fprintf(bw, "%d %d %s\n", i, j, formatWeight(vals[k])); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

func formatWeight(v float64) string {
	return strconv.FormatFloat(v, 'g', 17, 64)
}

// MaxEdgeListNodes caps the node count an edge-list header may declare:
// ReadEdgeList sizes its CSR index arrays by it, and 2^20 nodes cost about
// 34 MB of them even with no edges.
const MaxEdgeListNodes = 1 << 20

// ReadEdgeList parses the WriteEdgeList format back into a Graph.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("graph: empty edge list: %w", ErrParam)
	}
	var n int
	if _, err := fmt.Sscanf(strings.TrimSpace(sc.Text()), "nodes %d", &n); err != nil {
		return nil, fmt.Errorf("graph: bad header %q: %w", sc.Text(), ErrParam)
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count: %w", ErrParam)
	}
	if n > MaxEdgeListNodes {
		return nil, fmt.Errorf("graph: %d nodes exceeds the edge-list limit %d: %w", n, MaxEdgeListNodes, ErrParam)
	}
	coo := sparse.NewCOO(n, n)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch {
		case len(fields) == 3 && fields[0] == "loop":
			i, err1 := strconv.Atoi(fields[1])
			wv, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: bad loop: %w", line, ErrParam)
			}
			if err := coo.Add(i, i, wv); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", line, err)
			}
		case len(fields) == 3:
			i, err1 := strconv.Atoi(fields[0])
			j, err2 := strconv.Atoi(fields[1])
			wv, err3 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge: %w", line, ErrParam)
			}
			if i == j {
				return nil, fmt.Errorf("graph: line %d: self-edge must use loop: %w", line, ErrParam)
			}
			if err := coo.AddSym(i, j, wv); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", line, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: %q: %w", line, text, ErrParam)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromWeights(coo.ToCSR())
}
