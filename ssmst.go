// Package ssmst is a from-scratch Go reproduction of Korman, Kutten and
// Masuzawa, "Fast and compact self-stabilizing verification, computation,
// and fault detection of an MST" (PODC 2011 / Distributed Computing 2015).
//
// It provides:
//
//   - SYNC_MST (§4): a synchronous O(n)-time, O(log n)-bit distributed MST
//     construction (ConstructMST).
//   - The O(log n)-bit MST proof labeling scheme with O(log² n) synchronous
//     detection time (Mark / NewVerifier) — the paper's primary result.
//   - The self-stabilizing MST construction with O(log n) bits and O(n)
//     stabilization time (NewSelfStabilizing) — the second main result.
//
// README.md maps every paper construct to its package and lists the
// commands that reproduce the measured tables; internal/runtime/DESIGN.md
// documents the execution engine.
package ssmst

import (
	"fmt"
	"math/rand"
	"slices"

	"ssmst/internal/graph"
	"ssmst/internal/oracle"
	"ssmst/internal/runtime"
	"ssmst/internal/selfstab"
	"ssmst/internal/syncmst"
	"ssmst/internal/verify"
)

// Engine is the double-buffered stepping engine that executes register
// protocols (runners expose theirs as Eng). Its one fan-out knob is
// Workers: ≤ 1 steps synchronous rounds serially, k ≥ 2 fans them out over
// up to k pool workers. Runners default to runtime.GOMAXPROCS(0). Parallel
// stepping is bit-identical to serial stepping.
type Engine = runtime.Engine

// PoolWorkers reports the size of the shared synchronous worker pool
// (GOMAXPROCS at first use, at least 2).
func PoolWorkers() int { return runtime.PoolWorkers() }

// Graph is an undirected edge-weighted network with unique node identities
// and per-node port numbering (§2.1).
type Graph = graph.Graph

// Labeled is a fully marked instance: the spanning tree under verification
// plus every node's O(log n)-bit proof labels.
type Labeled = verify.Labeled

// Verifier drives the distributed verification scheme over a simulated
// network, with fault injection and detection measurement.
type Verifier = verify.Runner

// VState is one node's full verifier state — registers plus proof labels —
// as passed to the mutator of Verifier.Inject for fault injection.
type VState = verify.VState

// SelfStabilizing drives the self-stabilizing MST construction.
type SelfStabilizing = selfstab.Runner

// Mode selects the network model for verification.
type Mode = verify.Mode

// The two network models of the paper (§2.1).
const (
	Sync  = verify.Sync
	Async = verify.Async
)

// RandomGraph generates a connected random graph with n nodes, m edges,
// scrambled unique identities and distinct weights. It returns an error
// unless n ≥ 1 and n-1 ≤ m ≤ n(n-1)/2 (connected and simple).
func RandomGraph(n, m int, seed int64) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("ssmst: RandomGraph: n=%d, need n ≥ 1", n)
	}
	if lo, hi := n-1, n*(n-1)/2; m < lo || m > hi {
		return nil, fmt.Errorf("ssmst: RandomGraph: m=%d outside [%d, %d] for n=%d (connected simple graph)", m, lo, hi, n)
	}
	return graph.RandomConnected(n, m, seed), nil
}

// ConstructMST runs SYNC_MST (§4) and returns the MST edges and the
// synchronous round count (O(n)).
func ConstructMST(g *Graph) (edges []int, rounds int, err error) {
	res, err := syncmst.Simulate(g)
	if err != nil {
		return nil, 0, err
	}
	return res.Tree.EdgeSet(), res.Rounds, nil
}

// Mark runs the full marker (§5–6): construct the MST and assign every
// label layer. The construction time field reports the simulated O(n)
// distributed marker time.
func Mark(g *Graph) (*Labeled, error) { return verify.Mark(g) }

// MarkTree labels an arbitrary spanning tree (not necessarily minimal);
// verification rejects unless it is an MST.
func MarkTree(g *Graph, treeEdges []int) (*Labeled, error) {
	return verify.MarkTree(g, treeEdges, false)
}

// NewVerifier builds a verification run over the labeled instance. Rounds
// recycle each node's two-rounds-old state (no allocation) and re-check the
// static label layers incrementally: their memoized per-node verdict is
// replayed until the engine's change tracking reports a neighbourhood label
// change, so a quiet round costs the dynamic train/sampler work plus one
// O(Δ) change probe rather than the full label check.
func NewVerifier(l *Labeled, mode Mode, seed int64) *Verifier {
	return verify.NewRunner(l, mode, seed)
}

// NewVerifierFullRecheck is NewVerifier with incremental verification
// disabled: every round re-checks all label layers from scratch. The
// reference configuration incremental runs are measured against; the two
// are bit-identical in every protocol-visible field.
func NewVerifierFullRecheck(l *Labeled, mode Mode, seed int64) *Verifier {
	return verify.NewFullRecheckRunner(l, mode, seed)
}

// NewVerifierWorklist is NewVerifier (Sync only) with the coasting regime
// enabled — nodes whose neighbourhood certifies quiet (static verdict
// memo-valid, trains at rest, sampler sweep starved for a full horizon)
// freeze into pure per-node clockwork, and any label change melts the
// frozen region back awake at one hop per round — on the engine's sparse
// worklist stepping mode: each round steps only the active frontier and
// replays every skipped node's clocks algebraically on demand, so a quiet
// certified network costs O(active + Δ) per round instead of Θ(n)
// (measured flat in n: ~5 ns/round at n=65536). Verdicts, detection
// rounds, alarm traces and MaxStateBits are bit-identical to NewVerifier.
func NewVerifierWorklist(l *Labeled, seed int64) *Verifier {
	return verify.NewWorklistRunner(l, seed)
}

// NewSelfStabilizing builds a self-stabilizing MST run; bound is the
// polynomial upper bound on n assumed by the reset substrate. Rounds
// recycle each node's two-rounds-old state.
func NewSelfStabilizing(g *Graph, bound int, mode Mode, seed int64) *SelfStabilizing {
	return selfstab.NewRunner(g, bound, mode, seed)
}

// NewSelfStabilizingFullRecheck is NewSelfStabilizing with the embedded
// verifier's incremental memoization disabled (the check phase re-checks
// every label layer every round) — the reference configuration for
// cross-checking the incremental transformer.
func NewSelfStabilizingFullRecheck(g *Graph, bound int, mode Mode, seed int64) *SelfStabilizing {
	return selfstab.NewFullRecheckRunner(g, bound, mode, seed)
}

// ChurnKind selects a topology-mutation fault: live weight perturbation,
// link cut or link insertion under the running detection pipeline.
type ChurnKind = verify.ChurnKind

// ChurnEvent describes one applied topology mutation.
type ChurnEvent = verify.ChurnEvent

// The churn menu. MST-preserving kinds must keep the network silent;
// MST-breaking kinds must be detected within the O(log² n) budget (and, in
// the self-stabilizing transformer, trigger a rebuild over the mutated
// graph).
const (
	ChurnWeightKeep  = verify.ChurnWeightKeep  // raise a non-tree weight: MST preserved
	ChurnWeightBreak = verify.ChurnWeightBreak // drop a non-tree weight below its cycle max
	ChurnCut         = verify.ChurnCut         // remove a non-tree link (port compaction)
	ChurnAddHeavy    = verify.ChurnAddHeavy    // insert a link heavier than everything
	ChurnAddLight    = verify.ChurnAddLight    // insert a link closing a lighter cycle
)

// NumChurnKinds is the size of the churn menu.
const NumChurnKinds = verify.NumChurnKinds

// ParseChurnKind resolves a churn kind by its canonical name ("weight-keep",
// "weight-break", "cut", "add-heavy", "add-light"); ok is false for unknown
// names. CLI menus parse against this single table.
func ParseChurnKind(name string) (ChurnKind, bool) { return verify.ParseChurnKind(name) }

// ChurnTarget is any runner that accepts live topology mutations — both
// Verifier and SelfStabilizing do.
type ChurnTarget interface {
	ApplyChurn(kind ChurnKind, rng *rand.Rand) (ChurnEvent, bool)
}

// ApplyChurn plans a churn event of the given kind against the tree the
// runner currently verifies (or outputs) and applies it through the
// engine's topology-mutation path: the CSR adjacency is re-synced,
// port-indexed protocol state is remapped under port compaction, and the
// touched neighbourhoods' memo caches and dirty epochs are invalidated so
// incremental verification stays bit-identical to a full re-check. It
// reports the event and whether one was applied (a given kind may be
// unavailable — e.g. no non-tree edge to cut).
func ApplyChurn(r ChurnTarget, kind ChurnKind, rng *rand.Rand) (ChurnEvent, bool) {
	return r.ApplyChurn(kind, rng)
}

// IsMST reports whether the edge set is the minimum spanning tree of g.
func IsMST(g *Graph, edges []int) bool {
	return graph.IsMST(g, edges, graph.ByWeight(g))
}

// NormalizeWeights returns a copy of g whose weights are replaced by their
// ranks under the ω′ order of Kor et al. (footnote 1 of the paper) for the
// given candidate tree: distinct integers such that the candidate is an MST
// of the normalized graph iff it is an MST of the original — the transform
// that makes verification of graphs with duplicate weights sound (the
// standard ID-only tie-break does not preserve this). Pass nil to normalize
// for construction (no candidate; plain lexicographic tie-break).
func NormalizeWeights(g *Graph, candidate []int) *Graph {
	inTree := make(map[int]bool, len(candidate))
	for _, e := range candidate {
		inTree[e] = true
	}
	var order graph.EdgeOrder
	if candidate == nil {
		order = graph.ModifiedOrder(g, func(int) bool { return false })
	} else {
		order = graph.ModifiedOrder(g, func(e int) bool { return inTree[e] })
	}
	perm := make([]int, g.M())
	for i := range perm {
		perm[i] = i
	}
	// Stable, so edges the order leaves tied keep index order.
	slices.SortStableFunc(perm, func(a, b int) int {
		switch {
		case order(a, b):
			return -1
		case order(b, a):
			return 1
		}
		return 0
	})
	// Preserve identities.
	ids := make([]graph.NodeID, g.N())
	for v := range ids {
		ids[v] = g.ID(v)
	}
	out := graph.New(g.N(), ids)
	rank := make([]graph.Weight, g.M())
	for r, e := range perm {
		rank[e] = graph.Weight(r + 1)
	}
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		out.MustAddEdge(ed.U, ed.V, rank[e])
	}
	return out
}

// DetectionBudget bounds the detection time of Theorem 8.5 for n nodes.
func DetectionBudget(n int) int { return verify.DetectionBudget(n) }

// CorruptSpanningTree returns the spanning tree obtained from g's MST by k
// random cycle edits, each swapping a strictly lighter tree edge for a
// heavier non-tree edge on its cycle — so for k ≥ 1 (under distinct
// weights) the result is certifiably non-minimal. Deterministic in
// (k, seed); errors when the graph has no cycle left to edit (adversarial
// instance generation for the fault-campaign experiments).
func CorruptSpanningTree(g *Graph, k int, seed int64) ([]int, error) {
	gen, err := graph.NewCorruptedMSTGenerator(g)
	if err != nil {
		return nil, err
	}
	return gen.Generate(k, seed)
}

// OracleIsMST is the centralized ground truth the distributed verdicts are
// cross-checked against: it runs both the path-maximum T-lightness oracle
// and the Union-Find cycle-property oracle (internal/oracle), each
// O((n+m) log n), and errors if the two independent checkers ever
// disagree.
func OracleIsMST(g *Graph, treeEdges []int) (bool, error) {
	return oracle.CrossCheck(g, treeEdges, graph.ByWeight(g))
}
