// Package oracle provides centralized ground-truth MST verifiers that
// cross-check every distributed verdict in an adversarial campaign run.
// Two independent formulations of minimality are implemented:
//
//   - TLightness: per non-tree edge, the heaviest tree edge on its tree
//     path, answered from binary-lifting path-maximum tables over the
//     BFS-rooted tree in O((n+m) log n). T is minimal iff no non-tree edge
//     beats the heaviest tree edge on its path (no edge is "T-light"). The
//     naive per-edge DFS verifier of Kor–Korman–Peleg, O(m·n), is kept in
//     the tests as the reference this formulation is checked against.
//   - CycleUnionFind: a Kruskal-style greedy sweep over a union-find in
//     ascending edge order. Under a total order the greedy forest is the
//     unique MST, so T is minimal iff every greedily selected edge is a
//     tree edge.
//
// Both take an arbitrary graph.EdgeOrder, so they run on raw distinct
// weights (ByWeight) or the ω′ transform. CrossCheck runs both and treats a
// disagreement as an implementation bug (an error), never as a verdict —
// that is what makes the pair a usable audit: a campaign outcome is only
// accepted against two independently derived answers that concur.
package oracle

import (
	"fmt"
	"math/bits"
	"sort"

	"ssmst/internal/graph"
)

// Verdict is one oracle's answer, with a witness when the tree is rejected.
type Verdict struct {
	IsMST    bool
	Spanning bool // false: not even a spanning tree (witness fields unset)
	// ViolatingEdge is a non-tree edge proving non-minimality: for
	// TLightness a T-light edge (lighter than TreeEdge, the heaviest tree
	// edge on its tree path); for CycleUnionFind a greedily selected edge
	// the tree does not contain (a cut-property violation; TreeEdge is -1).
	ViolatingEdge int
	TreeEdge      int
}

// TLightness answers whether treeEdges is a minimum spanning tree of g
// under less, by the T-lightness formulation: for every non-tree edge e,
// find the heaviest tree edge on the tree path between its endpoints; e
// must not be lighter. The tree is rooted by BFS, which also decides
// spanning-ness without the union-find CycleUnionFind relies on.
// Binary-lifting tables hold, per node and power of two, the ancestor 2^k
// steps up and the heaviest tree edge on that climb, so each path maximum
// costs O(log n) and the whole check O((n+m) log n). Non-tree edges are
// scanned in index order, so the witness is the lowest-indexed T-light
// edge. The naive O(m·n) per-edge DFS of Kor–Korman–Peleg is kept as
// naiveTLightness in oracle_test.go, the reference this must match verdict
// for verdict.
func TLightness(g *graph.Graph, treeEdges []int, less graph.EdgeOrder) Verdict {
	v := Verdict{ViolatingEdge: -1, TreeEdge: -1}
	n := g.N()
	if len(treeEdges) != n-1 {
		return v
	}
	inTree := make([]bool, g.M())
	adj := make([][]graph.Half, n)
	for _, e := range treeEdges {
		inTree[e] = true
		ed := g.Edge(e)
		adj[ed.U] = append(adj[ed.U], graph.Half{Peer: ed.V, Edge: e})
		adj[ed.V] = append(adj[ed.V], graph.Half{Peer: ed.U, Edge: e})
	}
	// BFS from node 0: level 0 of the tables is the parent and parent edge
	// (the root is its own parent, under no edge). n-1 edges reaching all n
	// nodes are exactly a spanning tree.
	levels := bits.Len(uint(n))
	up := make([][]int32, levels)
	mx := make([][]int32, levels)
	for k := range up {
		up[k] = make([]int32, n)
		mx[k] = make([]int32, n)
	}
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	mx[0][0] = -1
	queue := append(make([]int32, 0, n), 0)
	for i := 0; i < len(queue); i++ {
		x := queue[i]
		for _, h := range adj[x] {
			if depth[h.Peer] >= 0 {
				continue
			}
			depth[h.Peer] = depth[x] + 1
			up[0][h.Peer], mx[0][h.Peer] = x, int32(h.Edge)
			queue = append(queue, int32(h.Peer))
		}
	}
	if len(queue) != n {
		return v
	}
	v.Spanning = true
	// heavier returns the heavier of two tree edges, -1 standing for none.
	heavier := func(a, b int32) int32 {
		if a < 0 || (b >= 0 && less(int(a), int(b))) {
			return b
		}
		return a
	}
	for k := 1; k < levels; k++ {
		for x := range up[k] {
			mid := up[k-1][x]
			up[k][x] = up[k-1][mid]
			mx[k][x] = heavier(mx[k-1][x], mx[k-1][mid])
		}
	}
	// pathMax climbs a and b to their lowest common ancestor and returns the
	// heaviest tree edge crossed.
	pathMax := func(a, b int32) int32 {
		best := int32(-1)
		if depth[a] < depth[b] {
			a, b = b, a
		}
		for k, diff := 0, depth[a]-depth[b]; diff > 0; k, diff = k+1, diff>>1 {
			if diff&1 != 0 {
				best = heavier(best, mx[k][a])
				a = up[k][a]
			}
		}
		if a == b {
			return best
		}
		for k := levels - 1; k >= 0; k-- {
			if up[k][a] != up[k][b] {
				best = heavier(best, heavier(mx[k][a], mx[k][b]))
				a, b = up[k][a], up[k][b]
			}
		}
		return heavier(best, heavier(mx[0][a], mx[0][b]))
	}
	for e := 0; e < g.M(); e++ {
		if inTree[e] {
			continue
		}
		ed := g.Edge(e)
		// e is T-light iff it is strictly lighter than the heaviest path edge.
		if t := pathMax(int32(ed.U), int32(ed.V)); less(e, int(t)) {
			v.ViolatingEdge, v.TreeEdge = e, int(t)
			return v
		}
	}
	v.IsMST = true
	return v
}

// CycleUnionFind answers whether treeEdges is a minimum spanning tree of g
// under less, by the greedy cut formulation: sweep all edges ascending over
// a union-find; each edge joining two components belongs to the unique MST
// of the total order, so the first selected non-tree edge refutes
// minimality. O(m log m).
func CycleUnionFind(g *graph.Graph, treeEdges []int, less graph.EdgeOrder) Verdict {
	v := Verdict{ViolatingEdge: -1, TreeEdge: -1}
	if !graph.IsSpanningTree(g, treeEdges) {
		return v
	}
	v.Spanning = true
	inTree := make([]bool, g.M())
	for _, e := range treeEdges {
		inTree[e] = true
	}
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return less(order[i], order[j]) })
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range order {
		ed := g.Edge(e)
		ru, rv := find(ed.U), find(ed.V)
		if ru == rv {
			continue
		}
		parent[ru] = rv
		if !inTree[e] {
			v.ViolatingEdge = e
			return v
		}
	}
	v.IsMST = true
	return v
}

// CrossCheck runs both oracles and returns their shared verdict. The two
// disagreeing is an internal inconsistency (a bug in one formulation), so
// it is reported as an error, never folded into a verdict.
func CrossCheck(g *graph.Graph, treeEdges []int, less graph.EdgeOrder) (bool, error) {
	a := TLightness(g, treeEdges, less)
	b := CycleUnionFind(g, treeEdges, less)
	if a.IsMST != b.IsMST || a.Spanning != b.Spanning {
		return false, fmt.Errorf("oracle: verdicts disagree: T-lightness {mst=%v spanning=%v witness=%d} vs union-find {mst=%v spanning=%v witness=%d}",
			a.IsMST, a.Spanning, a.ViolatingEdge, b.IsMST, b.Spanning, b.ViolatingEdge)
	}
	return a.IsMST, nil
}
