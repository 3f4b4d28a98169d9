package main

import (
	"fmt"
	"runtime"
	"time"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/labeling"
	"ssmst/internal/partition"
	srt "ssmst/internal/runtime"
	"ssmst/internal/syncmst"
	"ssmst/internal/train"
	"ssmst/internal/verify"
)

// pipe drives the program's layers through their public functions. With
// tracing on, it records one span per call and calls the marker's stages
// one by one, in verify.Mark's order; with tracing off it calls
// verify.Mark / verify.MarkTree once. Round loops are the runners' own
// loops, re-stated here so that every round is timed.
type pipe struct {
	tr *tracer
	// attempted and failed count verdict checks and pipeline operations;
	// failures describes each failed one.
	attempted, failed int
	failures          []string
	// invert flips every expected verdict. Only the self-test sets it, to
	// prove that a wrong expectation is counted as a failure.
	invert bool
	// deadline stops an alarm wait that would run the benchmark past its
	// time limit; the wait then counts as a failed verdict.
	deadline time.Time
}

// expect records one verdict against its ground truth.
func (p *pipe) expect(what string, want, got bool) {
	if p.invert {
		want = !want
	}
	p.attempted++
	if want != got {
		p.failed++
		p.failures = append(p.failures, fmt.Sprintf("%s: want %v, got %v", what, want, got))
	}
}

// check records one pipeline operation that must succeed; it reports
// whether it did.
func (p *pipe) check(what string, err error) bool {
	p.attempted++
	if err != nil {
		p.failed++
		p.failures = append(p.failures, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// markStats are the marker's figures the traced run reports per call.
type markStats struct {
	syncRounds int
	fragments  int
}

// mark runs the full marker on g.
func (p *pipe) mark(g *graph.Graph, st *markStats) (*verify.Labeled, error) {
	if !p.tr.on {
		return verify.Mark(g)
	}
	var l *verify.Labeled
	var err error
	p.tr.do("verify.Mark", func() {
		var res *syncmst.Result
		p.tr.do("syncmst.Simulate", func() { res, err = syncmst.Simulate(g) })
		if err != nil {
			return
		}
		l, err = p.markStages(g, res.Tree, res.Hierarchy, res.Rounds, st)
	})
	return l, err
}

// markTree labels the given spanning tree of g (verify.MarkTree).
func (p *pipe) markTree(g *graph.Graph, treeEdges []int, st *markStats) (*verify.Labeled, error) {
	if !p.tr.on {
		return verify.MarkTree(g, treeEdges, false)
	}
	var l *verify.Labeled
	var err error
	p.tr.do("verify.MarkTree", func() {
		// The same steps as verify.MarkTree: simulate fragment merging on
		// the tree-only graph, then rebuild the hierarchy over g.
		ids := make([]graph.NodeID, g.N())
		for v := range ids {
			ids[v] = g.ID(v)
		}
		tg := graph.New(g.N(), ids)
		for _, e := range treeEdges {
			ed := g.Edge(e)
			if _, err = tg.AddEdge(ed.U, ed.V, ed.W); err != nil {
				return
			}
		}
		var res *syncmst.Result
		p.tr.do("syncmst.Simulate", func() { res, err = syncmst.Simulate(tg) })
		if err != nil {
			return
		}
		var tree *graph.Tree
		if tree, err = graph.TreeFromEdges(g, treeEdges, res.Tree.Root); err != nil {
			return
		}
		raws := make([]hierarchy.RawFragment, 0, len(res.Hierarchy.Frags))
		for i := range res.Hierarchy.Frags {
			f := &res.Hierarchy.Frags[i]
			cand := -1
			if f.Cand >= 0 {
				ed := tg.Edge(f.Cand)
				cand = g.EdgeBetween(ed.U, ed.V)
			}
			raws = append(raws, hierarchy.RawFragment{Nodes: append([]int(nil), f.Nodes...), Cand: cand})
		}
		var h *hierarchy.Hierarchy
		p.tr.do("hierarchy.Build", func() { h, err = hierarchy.Build(tree, raws) })
		if err != nil {
			return
		}
		l, err = p.markStages(g, tree, h, res.Rounds, st)
	})
	return l, err
}

// markStages is verify.Mark after the SYNC_MST run, one span per stage.
func (p *pipe) markStages(g *graph.Graph, tree *graph.Tree, h *hierarchy.Hierarchy, rounds int, st *markStats) (*verify.Labeled, error) {
	st.syncRounds += rounds
	st.fragments += len(h.Frags)
	var parts *partition.Partitions
	var err error
	p.tr.do("partition.Compute", func() { parts, err = partition.Compute(h) })
	if err != nil {
		return nil, fmt.Errorf("partitions: %w", err)
	}
	var sp []labeling.SPLabel
	var size []labeling.SizeLabel
	p.tr.do("labeling.MarkSP", func() { sp = labeling.MarkSP(tree) })
	p.tr.do("labeling.MarkSize", func() { size = labeling.MarkSize(tree) })
	var ss []hierarchy.Strings
	p.tr.do("hierarchy.MarkStrings", func() { ss = hierarchy.MarkStrings(h) })
	var tl []train.NodeLabels
	p.tr.do("train.Mark", func() { tl = train.Mark(parts) })
	labels := make([]verify.NodeLabels, g.N())
	for v := range labels {
		labels[v] = verify.NodeLabels{SP: sp[v], Size: size[v], HS: ss[v], Train: tl[v]}
	}
	return &verify.Labeled{
		G:                g,
		Tree:             tree,
		H:                h,
		Parts:            parts,
		Labels:           labels,
		ConstructionTime: partition.MarkerTime(h, rounds, parts),
	}, nil
}

// newRunner builds the verifier engine with the marker's labels installed.
func (p *pipe) newRunner(l *verify.Labeled, seed int64) *verify.Runner {
	var r *verify.Runner
	p.tr.do("verify.NewRunner", func() { r = verify.NewRunner(l, verify.Sync, seed) })
	return r
}

// step advances one synchronous round of a verifier engine.
func (p *pipe) step(eng *srt.Engine) {
	p.tr.do("runtime.Engine.Step", func() { eng.Step(false) })
}

// roundTimes collects the wall time of every measured round, in ms, by
// group: the graph family where a workload mixes families, "" otherwise.
type roundTimes map[string][]float64

// runQuiet steps rounds rounds (the loop of verify.Runner.RunQuiet),
// timing each, and reports whether the network stayed silent.
func (p *pipe) runQuiet(r *verify.Runner, rounds int, rt roundTimes, group string) bool {
	for i := 0; i < rounds; i++ {
		start := time.Now()
		p.step(r.Eng)
		_, bad := r.Eng.AnyAlarm()
		rt[group] = append(rt[group], millis(time.Since(start)))
		if bad {
			return false
		}
	}
	return true
}

// runUntilAlarm steps until the first alarm or the budget (the loop of
// verify.Runner.RunUntilAlarm), timing each round. It returns the rounds
// taken.
func (p *pipe) runUntilAlarm(r *verify.Runner, budget int, rt roundTimes, group string) (int, bool) {
	for i := 0; i < budget; i++ {
		start := time.Now()
		p.step(r.Eng)
		_, bad := r.Eng.AnyAlarm()
		rt[group] = append(rt[group], millis(time.Since(start)))
		if bad {
			return i + 1, true
		}
		if !p.deadline.IsZero() && time.Now().After(p.deadline) {
			p.check("alarm wait", fmt.Errorf("no alarm after %d rounds when the benchmark's time guard expired", i+1))
			return i + 1, false
		}
	}
	return budget, false
}

// settle runs the given number of rounds (runtime.Engine.RunSyncRounds).
func (p *pipe) settle(r *verify.Runner, rounds int) {
	if !p.tr.on {
		r.Eng.RunSyncRounds(rounds)
		return
	}
	p.tr.do("verify.settle", func() {
		for i := 0; i < rounds; i++ {
			p.step(r.Eng)
		}
	})
}

// isMST is the centralized ground truth for large instances.
func (p *pipe) isMST(g *graph.Graph, edges []int) bool {
	var ok bool
	p.tr.do("graph.IsMST", func() { ok = graph.IsMST(g, edges, graph.ByWeight(g)) })
	return ok
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timed returns how long f took.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// settleRounds is the warm-up that lets every train complete two cycles:
// twice the largest label-bounded train cycle, plus slack.
func settleRounds(l *verify.Labeled) int {
	max := 0
	for i := range l.Labels {
		for _, lab := range []*train.Labels{&l.Labels[i].Train.Top, &l.Labels[i].Train.Bottom} {
			if b := lab.CycleBudget(); b > max {
				max = b
			}
		}
	}
	return 2*max + 32
}
