package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// This file holds the adversarial-campaign graph families the basic menu
// (generators.go) lacks: heavy-tailed degree distributions (PowerLaw),
// metric road-like topologies (Geometric) and locally tree-like expanders
// (HighGirth). Like every generator, they produce connected graphs with
// scrambled unique identities and pairwise-distinct weights, deterministic
// in the seed.

// PowerLaw returns a connected preferential-attachment (Barabási–Albert)
// graph: a seed clique on attach+1 nodes, then each new node links to
// attach distinct existing nodes sampled proportionally to current degree.
// The degree distribution is heavy-tailed — the hub-dominated regime where
// a few nodes carry most adjacency, which stresses Δ-dependent costs.
func PowerLaw(n, attach int, seed int64) *Graph {
	if attach < 1 || attach+1 > n {
		panic(fmt.Sprintf("graph: powerlaw needs 1 <= attach < n (attach=%d n=%d)", attach, n))
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	m := (attach+1)*attach/2 + (n-attach-1)*attach
	ws := distinctWeights(m, rng)
	k := 0
	// ends is the endpoint multiset: drawing uniformly from it is exactly
	// degree-proportional sampling.
	ends := make([]int, 0, 2*m)
	for i := 0; i <= attach; i++ {
		for j := i + 1; j <= attach; j++ {
			g.MustAddEdge(i, j, ws[k])
			k++
			ends = append(ends, i, j)
		}
	}
	for v := attach + 1; v < n; v++ {
		added := 0
		for added < attach {
			t := ends[rng.Intn(len(ends))]
			if t == v || g.PortTo(v, t) >= 0 {
				continue
			}
			g.MustAddEdge(v, t, ws[k])
			k++
			ends = append(ends, v, t)
			added++
		}
	}
	return g
}

// Geometric returns a connected random geometric ("road-like") graph: n
// points uniform in the unit square, every pair within the connection
// radius linked, and weights assigned by distance rank — shorter links are
// lighter, the metric structure of road networks. The radius targets a mean
// degree of ~6 (the planar-ish regime of road graphs); disconnected
// fragments are stitched to the main component over their geometrically
// nearest crossing pair, rank-continuing the weight sequence.
func Geometric(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	d2 := func(u, v int) float64 {
		dx, dy := xs[u]-xs[v], ys[u]-ys[v]
		return dx*dx + dy*dy
	}
	radius := math.Sqrt(6.0 / (math.Pi * float64(n)))
	type pair struct {
		u, v int
		d    float64
	}
	var cands []pair
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if d := d2(u, v); d <= radius*radius {
				cands = append(cands, pair{u, v, d})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		if cands[i].u != cands[j].u {
			return cands[i].u < cands[j].u
		}
		return cands[i].v < cands[j].v
	})
	// distinctWeights is shuffled; sort it ascending so assignment order is
	// distance-rank order (n extra weights reserved for the stitches).
	ws := distinctWeights(len(cands)+n, rng)
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	k := 0
	for _, c := range cands {
		g.MustAddEdge(c.u, c.v, ws[k])
		k++
	}
	// Stitch: while disconnected, link the geometrically nearest pair that
	// crosses the component cut of the lowest-indexed component.
	for {
		comp := componentLabels(g)
		bu, bv, bd := -1, -1, math.Inf(1)
		for u := 0; u < n; u++ {
			if comp[u] != comp[0] {
				continue
			}
			for v := 0; v < n; v++ {
				if comp[v] == comp[0] {
					continue
				}
				if d := d2(u, v); d < bd {
					bu, bv, bd = u, v, d
				}
			}
		}
		if bu < 0 {
			return g
		}
		g.MustAddEdge(bu, bv, ws[k])
		k++
	}
}

// componentLabels returns a connected-component label per node.
func componentLabels(g *Graph) []int {
	comp := make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	queue := make([]int, 0, g.N())
	for s := 0; s < g.N(); s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, h := range g.Ports(v) {
				if comp[h.Peer] < 0 {
					comp[h.Peer] = next
					queue = append(queue, h.Peer)
				}
			}
		}
		next++
	}
	return comp
}

// HighGirth returns a connected n-node graph with girth ≥ girth: a
// Hamiltonian-path backbone plus random chords accepted only when their
// endpoints are at graph distance ≥ girth-1 at insertion time, so every
// cycle a chord closes has length ≥ girth. It aims for m edges with a
// bounded number of attempts; dense high-girth regimes may stop below m
// (connectivity, the girth bound and seed determinism always hold). Locally
// tree-like graphs are the worst case for neighbourhood-local checks: no
// short cycle ever corroborates a label.
func HighGirth(n, m, girth int, seed int64) *Graph {
	if girth < 3 {
		panic(fmt.Sprintf("graph: highgirth needs girth >= 3 (girth=%d)", girth))
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	ws := distinctWeights(m+n, rng)
	k := 0
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, ws[k])
		k++
	}
	// withinDistance reports whether v is reachable from u in at most limit
	// hops: a BFS truncated at depth limit, over buffers allocated once per
	// graph. dist[x] is valid only while seen[x] holds the current query's
	// stamp, so a query costs the nodes it visits, not O(n).
	seen, dist, queue := make([]int, n), make([]int, n), make([]int, 0, n)
	stamp := 0
	withinDistance := func(u, v, limit int) bool {
		stamp++
		seen[u], dist[u] = stamp, 0
		queue = append(queue[:0], u)
		for i := 0; i < len(queue); i++ {
			x := queue[i]
			if dist[x] >= limit {
				continue
			}
			for _, h := range g.Ports(x) {
				if seen[h.Peer] != stamp {
					if h.Peer == v {
						return true
					}
					seen[h.Peer], dist[h.Peer] = stamp, dist[x]+1
					queue = append(queue, h.Peer)
				}
			}
		}
		return false
	}
	for attempts := 0; g.M() < m && attempts < 30*m; attempts++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.PortTo(u, v) >= 0 || withinDistance(u, v, girth-2) {
			continue
		}
		g.MustAddEdge(u, v, ws[k])
		k++
	}
	return g
}

// Families lists the campaign graph-family names ByFamily resolves — the
// single menu CLI flags and campaign specs parse against.
func Families() []string {
	return []string{"random", "powerlaw", "geometric", "highgirth"}
}

// ByFamily builds the named campaign family at n nodes: "random"
// (RandomConnected, m=3n), "powerlaw" (preferential attachment, 3 links per
// node), "geometric" (road-like, mean degree ~6), "highgirth" (girth ≥ 6,
// m=2n target). Unknown names and sizes a family's generator rejects (n < 1
// for every family, n < 4 for "powerlaw") are errors, never panics or a
// silent default.
func ByFamily(name string, n int, seed int64) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: family %q needs n >= 1 (n=%d)", name, n)
	}
	switch name {
	case "random":
		return RandomConnected(n, 3*n, seed), nil
	case "powerlaw":
		if n < 4 {
			return nil, fmt.Errorf("graph: family \"powerlaw\" needs n >= 4 for 3 links per node (n=%d)", n)
		}
		return PowerLaw(n, 3, seed), nil
	case "geometric":
		return Geometric(n, seed), nil
	case "highgirth":
		return HighGirth(n, 2*n, 6, seed), nil
	}
	return nil, fmt.Errorf("graph: unknown family %q (families: %v)", name, Families())
}
