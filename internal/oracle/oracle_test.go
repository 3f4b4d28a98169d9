package oracle

import (
	"fmt"
	"sort"
	"testing"

	"ssmst/internal/graph"
)

// TestAgreesWithIsMSTOnMSTs: both oracles accept the true MST of every
// campaign family, agreeing with the repository's reference IsMST.
func TestAgreesWithIsMSTOnMSTs(t *testing.T) {
	const seed = int64(11)
	for _, fam := range graph.Families() {
		g, err := graph.ByFamily(fam, 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		mst, err := graph.Kruskal(g, graph.ByWeight(g))
		if err != nil {
			t.Fatalf("family %s seed %d: %v", fam, seed, err)
		}
		if !graph.IsMST(g, mst, graph.ByWeight(g)) {
			t.Fatalf("family %s seed %d: reference oracle rejects Kruskal output", fam, seed)
		}
		for name, verdict := range map[string]Verdict{
			"tlight": TLightness(g, mst, graph.ByWeight(g)),
			"uf":     CycleUnionFind(g, mst, graph.ByWeight(g)),
		} {
			if !verdict.Spanning || !verdict.IsMST {
				t.Errorf("family %s seed %d: %s rejects the MST: %+v", fam, seed, name, verdict)
			}
		}
		if ok, err := CrossCheck(g, mst, graph.ByWeight(g)); err != nil || !ok {
			t.Errorf("family %s seed %d: cross-check: ok=%v err=%v", fam, seed, ok, err)
		}
	}
}

// TestRejectsCorruptedTrees: for every family and corruption density k the
// oracles reject the corrupted tree, agree with IsMST, and produce valid
// witnesses.
func TestRejectsCorruptedTrees(t *testing.T) {
	const seed = int64(23)
	for _, fam := range graph.Families() {
		g, err := graph.ByFamily(fam, 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := graph.NewCorruptedMSTGenerator(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, 16} {
			tree, err := gen.Generate(k, seed+int64(k))
			if err != nil {
				t.Fatalf("family %s k=%d seed %d: %v", fam, k, seed, err)
			}
			if !graph.IsSpanningTree(g, tree) {
				t.Fatalf("family %s k=%d seed %d: corrupted output is not spanning", fam, k, seed)
			}
			if graph.IsMST(g, tree, graph.ByWeight(g)) {
				t.Fatalf("family %s k=%d seed %d: corrupted tree is still minimal", fam, k, seed)
			}
			tl := TLightness(g, tree, graph.ByWeight(g))
			uf := CycleUnionFind(g, tree, graph.ByWeight(g))
			if tl.IsMST || uf.IsMST {
				t.Fatalf("family %s k=%d seed %d: oracle accepted a corrupted tree (tlight=%v uf=%v)",
					fam, k, seed, tl.IsMST, uf.IsMST)
			}
			// Witness validity: the T-light edge must be strictly lighter
			// than the claimed heaviest path edge, and both must have the
			// right tree membership.
			inTree := make(map[int]bool, len(tree))
			for _, e := range tree {
				inTree[e] = true
			}
			if inTree[tl.ViolatingEdge] || !inTree[tl.TreeEdge] {
				t.Errorf("family %s k=%d seed %d: tlight witness has wrong membership: %+v", fam, k, seed, tl)
			}
			if !graph.ByWeight(g)(tl.ViolatingEdge, tl.TreeEdge) {
				t.Errorf("family %s k=%d seed %d: tlight witness not lighter than its path edge: %+v", fam, k, seed, tl)
			}
			if inTree[uf.ViolatingEdge] {
				t.Errorf("family %s k=%d seed %d: union-find witness is a tree edge: %+v", fam, k, seed, uf)
			}
			if ok, err := CrossCheck(g, tree, graph.ByWeight(g)); err != nil || ok {
				t.Errorf("family %s k=%d seed %d: cross-check: ok=%v err=%v", fam, k, seed, ok, err)
			}
		}
	}
}

// TestModifiedOrderDuplicateWeights: under duplicate raw weights the ω′
// order keeps the oracles sound — they must accept the candidate tree iff
// the reference IsMST does, for both a Kruskal tree and a corrupted one.
func TestModifiedOrderDuplicateWeights(t *testing.T) {
	const seed = int64(31)
	g0 := graph.RandomConnected(48, 120, seed)
	g := graph.WithDuplicateWeights(g0, 5, seed)
	for _, candidate := range [][]int{
		mustKruskal(t, g, graph.ModifiedOrder(g, func(int) bool { return false })),
		mustKruskal(t, g0, graph.ByWeight(g0)), // MST of g0, generally not of g
	} {
		inTree := make(map[int]bool, len(candidate))
		for _, e := range candidate {
			inTree[e] = true
		}
		less := graph.ModifiedOrder(g, func(e int) bool { return inTree[e] })
		want := graph.IsMST(g, candidate, less)
		got, err := CrossCheck(g, candidate, less)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got != want {
			t.Errorf("seed %d: oracles say %v, reference says %v", seed, got, want)
		}
	}
}

func mustKruskal(t *testing.T, g *graph.Graph, less graph.EdgeOrder) []int {
	t.Helper()
	tree, err := graph.Kruskal(g, less)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestRejectsNonSpanningInput: garbage edge sets (wrong size, a cycle) are
// rejected as non-spanning by both oracles, without witnesses.
func TestRejectsNonSpanningInput(t *testing.T) {
	g := graph.RandomConnected(16, 40, 3)
	mst := mustKruskal(t, g, graph.ByWeight(g))
	short := mst[:len(mst)-1]
	cyclic := append(append([]int(nil), short...), nonTreeEdge(g, mst))
	for name, bad := range map[string][]int{"short": short, "cyclic-maybe": cyclic} {
		for oname, verdict := range map[string]Verdict{
			"tlight": TLightness(g, bad, graph.ByWeight(g)),
			"uf":     CycleUnionFind(g, bad, graph.ByWeight(g)),
		} {
			if verdict.IsMST {
				t.Errorf("%s/%s: accepted a non-tree edge set", name, oname)
			}
		}
	}
}

func nonTreeEdge(g *graph.Graph, tree []int) int {
	inTree := make(map[int]bool, len(tree))
	for _, e := range tree {
		inTree[e] = true
	}
	for e := 0; e < g.M(); e++ {
		if !inTree[e] {
			return e
		}
	}
	return -1
}

// BenchmarkOracles is the centralized-baseline cost benchmark: one full
// audit of an MST at m=3n, per formulation and for the combined
// cross-check, so each formulation's cost is visible on its own.
func BenchmarkOracles(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		g := graph.RandomConnected(n, 3*n, 1)
		mst, err := graph.Kruskal(g, graph.ByWeight(g))
		if err != nil {
			b.Fatal(err)
		}
		less := graph.ByWeight(g)
		b.Run(fmt.Sprintf("TLightness/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !TLightness(g, mst, less).IsMST {
					b.Fatal("T-lightness rejects the Kruskal MST")
				}
			}
		})
		b.Run(fmt.Sprintf("CycleUnionFind/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !CycleUnionFind(g, mst, less).IsMST {
					b.Fatal("union-find rejects the Kruskal MST")
				}
			}
		})
		b.Run(fmt.Sprintf("CrossCheck/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ok, err := CrossCheck(g, mst, less); err != nil || !ok {
					b.Fatalf("cross-check: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// naiveTLightness is the naive centralized verifier TLightness replaced,
// kept as its differential reference: per non-tree edge, in index order, a
// DFS from one endpoint over the tree tracks the heaviest tree edge on the
// path to the other endpoint; the first edge strictly lighter than that
// maximum is the witness. O(m·n).
func naiveTLightness(g *graph.Graph, treeEdges []int, less graph.EdgeOrder) Verdict {
	v := Verdict{ViolatingEdge: -1, TreeEdge: -1}
	if !graph.IsSpanningTree(g, treeEdges) {
		return v
	}
	v.Spanning = true
	n := g.N()
	inTree := make([]bool, g.M())
	adj := make([][]graph.Half, n)
	for _, e := range treeEdges {
		inTree[e] = true
		ed := g.Edge(e)
		adj[ed.U] = append(adj[ed.U], graph.Half{Peer: ed.V, Edge: e})
		adj[ed.V] = append(adj[ed.V], graph.Half{Peer: ed.U, Edge: e})
	}
	visited := make([]int, n)
	for i := range visited {
		visited[i] = -1
	}
	heaviest := make([]int, n) // heaviest tree edge on the path from the DFS root
	stack := make([]int, 0, n)
	for e := 0; e < g.M(); e++ {
		if inTree[e] {
			continue
		}
		ed := g.Edge(e)
		stack = append(stack[:0], ed.U)
		visited[ed.U] = e
		heaviest[ed.U] = -1
		found := false
		for len(stack) > 0 && !found {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, h := range adj[x] {
				if visited[h.Peer] == e {
					continue
				}
				visited[h.Peer] = e
				hv := heaviest[x]
				if hv < 0 || less(hv, h.Edge) {
					hv = h.Edge
				}
				heaviest[h.Peer] = hv
				if h.Peer == ed.V {
					found = true
					break
				}
				stack = append(stack, h.Peer)
			}
		}
		if found && less(e, heaviest[ed.V]) {
			v.ViolatingEdge, v.TreeEdge = e, heaviest[ed.V]
			return v
		}
	}
	v.IsMST = true
	return v
}

// TestTLightnessMatchesNaive: the path-maximum TLightness returns exactly
// the naive DFS verdict, witness edges included, on the MSTs and k-edit
// corrupted trees of every campaign family, on ω′ duplicate-weight
// instances, and on non-spanning inputs.
func TestTLightnessMatchesNaive(t *testing.T) {
	cases := 0
	check := func(name string, g *graph.Graph, tree []int, less graph.EdgeOrder) {
		t.Helper()
		cases++
		if got, want := TLightness(g, tree, less), naiveTLightness(g, tree, less); got != want {
			t.Errorf("%s: TLightness %+v, naive %+v", name, got, want)
		}
	}
	for _, fam := range []string{"random", "powerlaw", "highgirth", "geometric"} {
		for _, n := range []int{17, 64, 200} {
			for seed := int64(1); seed <= 40; seed++ {
				g, err := graph.ByFamily(fam, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				gen, err := graph.NewCorruptedMSTGenerator(g)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("family %s n=%d seed %d", fam, n, seed)
				check(name+" MST", g, gen.MST(), graph.ByWeight(g))
				for _, k := range []int{1, 3, 9} {
					tree, err := gen.Generate(k, seed+int64(k))
					if err != nil {
						continue // saturated: no k-edit tree exists
					}
					check(fmt.Sprintf("%s k=%d", name, k), g, tree, graph.ByWeight(g))
				}
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		g0 := graph.RandomConnected(48, 120, seed)
		g := graph.WithDuplicateWeights(g0, 5, seed)
		for i, candidate := range [][]int{
			mustKruskal(t, g, graph.ModifiedOrder(g, func(int) bool { return false })),
			mustKruskal(t, g0, graph.ByWeight(g0)),
		} {
			inTree := make(map[int]bool, len(candidate))
			for _, e := range candidate {
				inTree[e] = true
			}
			less := graph.ModifiedOrder(g, func(e int) bool { return inTree[e] })
			check(fmt.Sprintf("ω′ seed %d candidate %d", seed, i), g, candidate, less)
		}
	}
	g := graph.RandomConnected(16, 40, 3)
	mst := mustKruskal(t, g, graph.ByWeight(g))
	short := mst[:len(mst)-1]
	for name, bad := range map[string][]int{
		"short":  short,
		"cyclic": append(append([]int(nil), short...), nonTreeEdge(g, mst)),
		"repeat": append(append([]int(nil), short...), short[0]),
		"long":   append(append([]int(nil), mst...), nonTreeEdge(g, mst)),
		"empty":  nil,
	} {
		check("non-spanning "+name, g, bad, graph.ByWeight(g))
	}
	single := graph.New(1, nil)
	check("n=1", single, nil, graph.ByWeight(single))
	t.Logf("%d cases", cases)
}

// FuzzTLightnessMatchesNaive decodes bytes into a small connected graph
// with distinct weights and a candidate edge set chosen from the bytes (a
// spanning tree, or one edited towards non-spanning), and checks that
// TLightness returns the naive DFS verdict exactly.
func FuzzTLightnessMatchesNaive(f *testing.F) {
	f.Add([]byte{0})                                                          // n=1
	f.Add([]byte{4, 0, 10, 1, 20, 2, 30, 3, 40, 0, 0, 4, 50})                 // path + chord
	f.Add([]byte{3, 0, 1, 1, 2, 2, 3, 0, 2, 4, 0, 3, 5, 1, 3, 6, 9, 1, 7, 2}) // K4
	f.Add([]byte{7, 0, 9, 0, 8, 1, 7, 1, 6, 2, 5, 2, 4, 3, 3, 5, 1, 6, 2, 4, 5, 7, 0, 3, 6, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("a 16-node graph needs far fewer bytes; long inputs only slow minimization")
		}
		g, tree := decodeGraphAndTree(data)
		less := graph.ByWeight(g)
		if got, want := TLightness(g, tree, less), naiveTLightness(g, tree, less); got != want {
			t.Fatalf("graph %v tree %v: TLightness %+v, naive %+v", g.Edges(), tree, got, want)
		}
	})
}

// decodeGraphAndTree reads n = 1 + data[0]%16, a (parent, weight) byte pair
// per node v ≥ 1 attaching v to parent%v (so the graph is connected), then
// (u, v, weight) triples adding extra edges, skipping self-loops and
// duplicates; weights are distinct (the byte sets the order, the edge index
// breaks ties). The candidate is the greedy spanning tree under per-edge
// priorities read from the remaining bytes, so any spanning tree can come
// out; a final mode byte may then drop a tree edge or swap one for a
// non-tree edge. Missing bytes read as zero.
func decodeGraphAndTree(data []byte) (*graph.Graph, []int) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	n := 1 + next()%16
	g := graph.New(n, nil)
	add := func(u, v, w int) {
		if u != v && g.EdgeBetween(u, v) < 0 {
			g.MustAddEdge(u, v, graph.Weight(w*256+g.M()+1))
		}
	}
	for v := 1; v < n; v++ {
		p := next() % v
		add(p, v, next())
	}
	extra := (len(data) - pos) / 4 // leave room for the priorities
	for i := 0; i < extra; i++ {
		u, v := next()%n, next()%n
		add(u, v, next())
	}
	prio := make([]int, g.M())
	order := make([]int, g.M())
	for e := range prio {
		prio[e], order[e] = next(), e
	}
	sort.SliceStable(order, func(i, j int) bool { return prio[order[i]] < prio[order[j]] })
	comp := make([]int, n)
	for i := range comp {
		comp[i] = i
	}
	find := func(x int) int {
		for comp[x] != x {
			x = comp[x]
		}
		return x
	}
	var tree, rest []int
	for _, e := range order {
		ed := g.Edge(e)
		if ru, rv := find(ed.U), find(ed.V); ru != rv {
			comp[ru] = rv
			tree = append(tree, e)
		} else {
			rest = append(rest, e)
		}
	}
	switch mode := next(); {
	case mode%4 == 1 && len(tree) > 0:
		tree = tree[:len(tree)-1]
	case mode%4 == 2 && len(tree) > 0 && len(rest) > 0:
		tree[mode/4%len(tree)] = rest[mode/4%len(rest)]
	}
	return g, tree
}

// TestCrossCheckAtScale: at n=65536 the cross-check agrees with the
// reference graph.IsMST on the Kruskal MST (accepted) and on a one-edit
// corrupted tree (rejected) of the random, power-law and high-girth
// families.
func TestCrossCheckAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("n=65536 cross-check skipped under -short")
	}
	const n, seed = 65536, int64(1)
	for _, fam := range []string{"random", "powerlaw", "highgirth"} {
		g, err := graph.ByFamily(fam, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := graph.NewCorruptedMSTGenerator(g)
		if err != nil {
			t.Fatal(err)
		}
		corrupted, err := gen.Generate(1, seed)
		if err != nil {
			t.Fatalf("family %s: %v", fam, err)
		}
		less := graph.ByWeight(g)
		for name, tree := range map[string][]int{"MST": gen.MST(), "k=1": corrupted} {
			want := graph.IsMST(g, tree, less)
			if want != (name == "MST") {
				t.Fatalf("family %s %s: reference IsMST=%v", fam, name, want)
			}
			got, err := CrossCheck(g, tree, less)
			if err != nil {
				t.Fatalf("family %s %s: %v", fam, name, err)
			}
			if got != want {
				t.Errorf("family %s %s: cross-check %v, reference %v", fam, name, got, want)
			}
		}
	}
}
