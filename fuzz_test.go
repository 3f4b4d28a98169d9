package ssmst

import (
	"testing"

	"ssmst/internal/graph"
)

// FuzzMarkVerifySmallGraphs decodes arbitrary bytes into a connected graph
// with 1 ≤ n ≤ 12 and drives the whole facade over it: honest labels from
// Mark must keep the synchronous verifier silent for DetectionBudget(n)
// rounds, and a one-edit corrupted spanning tree labeled by MarkTree must be
// rejected within the same budget — or, should the oracles certify it
// minimal after all, accepted — with OracleIsMST as ground truth.
func FuzzMarkVerifySmallGraphs(f *testing.F) {
	f.Add([]byte{0}, int64(1))                                              // n=1
	f.Add([]byte{4, 0, 10, 1, 20, 2, 30, 3, 40}, int64(2))                  // path
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5}, int64(3))                // star
	f.Add([]byte{3, 0, 1, 1, 2, 2, 3, 0, 2, 4, 0, 3, 5, 1, 3, 6}, int64(4)) // K4
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		g := decodeSmallGraph(data)
		budget := DetectionBudget(g.N())

		l, err := Mark(g)
		if err != nil {
			t.Fatalf("Mark: %v", err)
		}
		if err := NewVerifier(l, Sync, seed).RunQuiet(budget); err != nil {
			t.Fatalf("honest labels: %v", err)
		}

		tree, err := CorruptSpanningTree(g, 1, seed)
		if err != nil {
			return // no cycle to edit (a tree, or n ≤ 2)
		}
		isMST, err := OracleIsMST(g, tree)
		if err != nil {
			t.Fatalf("oracles disagree: %v", err)
		}
		lt, err := MarkTree(g, tree)
		if err != nil {
			t.Fatalf("MarkTree: %v", err)
		}
		v := NewVerifier(lt, Sync, seed)
		if isMST {
			if err := v.RunQuiet(budget); err != nil {
				t.Fatalf("oracle-certified MST: %v", err)
			}
			return
		}
		if _, _, detected := v.RunUntilAlarm(budget); !detected {
			t.Fatalf("oracle-rejected tree %v not detected within %d rounds", tree, budget)
		}
	})
}

// decodeSmallGraph reads n = 1 + data[0]%12, then for each node v ≥ 1 a
// (parent, weight) byte pair attaching v to node parent%v — a spanning tree,
// so the graph is connected — and then (u, v, weight) triples adding extra
// edges, skipping self-loops and duplicates. Missing bytes read as zero.
// Weights are distinct (the byte sets the order, the edge index breaks
// ties), the paper's standing assumption; duplicate-weight inputs are
// NormalizeWeights' domain.
func decodeSmallGraph(data []byte) *Graph {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	n := 1 + next()%12
	g := graph.New(n, nil)
	add := func(u, v, w int) {
		if u != v && g.EdgeBetween(u, v) < 0 {
			g.MustAddEdge(u, v, graph.Weight(w*128+g.M()+1))
		}
	}
	for v := 1; v < n; v++ {
		p := next() % v
		add(p, v, next())
	}
	for pos+3 <= len(data) {
		u, v := next()%n, next()%n
		add(u, v, next())
	}
	return g
}
