// Package ghs implements the Gallager–Humblet–Spira MST algorithm (§4.1)
// at the fragment level, with ideal-time accounting: the baseline the paper
// improves on. GHS merges fragments of equal level over their common
// minimum outgoing edge (level+1) and absorbs lower-level fragments into
// higher ones; a fragment of level L has ≥ 2^L nodes, and each level's
// waves cost time proportional to the fragment diameter, so the total time
// is O(n log n) — versus SYNC_MST's O(n) with its doubling round schedule.
//
// The returned tree is validated against Kruskal in the tests; the rounds
// metric drives the construction-time comparison of experiment E6.
package ghs

import (
	"errors"
	"fmt"
	"slices"

	"ssmst/internal/graph"
)

// Result is a GHS run: the MST edges and the ideal-time estimate.
type Result struct {
	TreeEdges []int
	// Rounds is the ideal time: per merge level, broadcasting find/found
	// waves over each fragment costs twice its height plus the test
	// exchanges; levels are summed.
	Rounds int
	Levels int
}

type fragment struct {
	nodes []int
	level int
	root  int
}

// Run executes fragment-level GHS. Weights must be distinct.
func Run(g *graph.Graph) (*Result, error) {
	if g.N() == 0 {
		return nil, errors.New("ghs: empty graph")
	}
	if !g.Connected() {
		return nil, errors.New("ghs: graph not connected")
	}
	if !g.HasDistinctWeights() {
		return nil, errors.New("ghs: weights must be distinct")
	}
	n := g.N()
	frags := make([]*fragment, n)
	fragOf := make([]int, n)
	for v := 0; v < n; v++ {
		frags[v] = &fragment{nodes: []int{v}, root: v}
		fragOf[v] = v
	}
	var treeEdges []int
	rounds := 0
	maxLevel := 0
	live := n
	for live > 1 {
		// One GHS "pass": every fragment at the current minimum level finds
		// its minimum outgoing edge and either merges (equal level, same
		// edge) or is absorbed by the higher-level fragment it points at.
		minLevel := 1 << 30
		for _, f := range frags {
			if f != nil && f.level < minLevel {
				minLevel = f.level
			}
		}
		type choice struct {
			frag int
			edge int
		}
		var choices []choice
		for fi, f := range frags {
			if f == nil || f.level != minLevel {
				continue
			}
			best := -1
			for _, v := range f.nodes {
				for _, h := range g.Ports(v) {
					if fragOf[h.Peer] == fi {
						continue
					}
					if best < 0 || g.Edge(h.Edge).W < g.Edge(best).W {
						best = h.Edge
					}
				}
			}
			if best < 0 {
				continue
			}
			choices = append(choices, choice{fi, best})
		}
		if len(choices) == 0 {
			// All minimum-level fragments are spanning or blocked: the
			// remaining fragment spans the graph.
			break
		}
		// Apply merges: fragment fi hooks into the fragment across its
		// chosen edge; equal-level mutual pairs raise the level.
		hooked := map[int]int{}
		edgeOf := map[int]int{}
		for _, c := range choices {
			ed := g.Edge(c.edge)
			target := fragOf[ed.U]
			if target == c.frag {
				target = fragOf[ed.V]
			}
			hooked[c.frag] = target
			edgeOf[c.frag] = c.edge
			treeEdges = append(treeEdges, c.edge)
		}
		// Break mutual pairs (the only possible cycles, by the decreasing-
		// weight argument of §4.1): the fragment with the larger root
		// identity wins and does not hook.
		for fi, target := range hooked {
			if t2, ok := hooked[target]; ok && t2 == fi && edgeOf[fi] == edgeOf[target] {
				winner := fi
				if g.ID(frags[target].root) > g.ID(frags[fi].root) {
					winner = target
				}
				delete(hooked, winner)
			}
		}
		find := func(x int) int {
			for i := 0; i < n+2; i++ {
				t, ok := hooked[x]
				if !ok {
					return x
				}
				x = t
			}
			return x
		}
		groups := map[int][]int{}
		for fi, f := range frags {
			if f != nil {
				groups[find(fi)] = append(groups[find(fi)], fi)
			}
		}
		largest := 1
		for sink, members := range groups {
			if len(members) == 1 {
				continue
			}
			merged := &fragment{root: frags[sink].root}
			lvl := 0
			for _, fi := range members {
				merged.nodes = append(merged.nodes, frags[fi].nodes...)
				if frags[fi].level > lvl {
					lvl = frags[fi].level
				}
			}
			// A mutual merge of equal-level fragments raises the level.
			equal := 0
			for _, fi := range members {
				if frags[fi].level == lvl {
					equal++
				}
			}
			if equal >= 2 {
				lvl++
			}
			merged.level = lvl
			if lvl > maxLevel {
				maxLevel = lvl
			}
			for _, fi := range members {
				if fi != sink {
					frags[fi] = nil
					live--
				}
			}
			frags[sink] = merged
			for _, v := range merged.nodes {
				fragOf[v] = sink
			}
			if len(merged.nodes) > largest {
				largest = len(merged.nodes)
			}
		}
		// Ideal time of the pass: find/found/change-root waves walk the
		// largest resulting fragment, plus the test/accept exchange.
		rounds += 3*largest + 2
	}
	treeEdges = dedupe(treeEdges)
	if len(treeEdges) != n-1 {
		return nil, fmt.Errorf("ghs: %d tree edges for %d nodes", len(treeEdges), n)
	}
	return &Result{TreeEdges: treeEdges, Rounds: rounds, Levels: maxLevel}, nil
}

// dedupe sorts xs ascending in place and drops duplicates.
func dedupe(xs []int) []int {
	slices.Sort(xs)
	return slices.Compact(xs)
}
