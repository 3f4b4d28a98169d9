package ssmst

import (
	"testing"

	"ssmst/internal/graph"
)

func TestFacadePipeline(t *testing.T) {
	g, err := RandomGraph(20, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	edges, rounds, err := ConstructMST(g)
	if err != nil {
		t.Fatal(err)
	}
	if !IsMST(g, edges) {
		t.Fatal("ConstructMST not minimal")
	}
	if rounds <= 0 || rounds > 44*g.N() {
		t.Fatalf("rounds = %d", rounds)
	}
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(l, Sync, 1)
	if err := v.RunQuiet(DetectionBudget(g.N()) / 4); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMarkTree(t *testing.T) {
	g, err := RandomGraph(12, 28, 5)
	if err != nil {
		t.Fatal(err)
	}
	edges, _, err := ConstructMST(g)
	if err != nil {
		t.Fatal(err)
	}
	l, err := MarkTree(g, edges)
	if err != nil {
		t.Fatal(err)
	}
	if l.MaxLabelBits() <= 0 {
		t.Fatal("no labels")
	}
}

func TestFacadeSelfStabilizing(t *testing.T) {
	g, err := RandomGraph(12, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := NewSelfStabilizing(g, g.N(), Sync, 2)
	if _, ok := r.RunUntilStable(r.StabilizationBudget()); !ok {
		t.Fatal("did not stabilize")
	}
	if !r.OutputIsMST() {
		t.Fatal("output not MST")
	}
}

// TestFacadeWorklist pins the PR 8 surface: a worklist verifier freezes a
// correct instance into zero-cost quiet rounds, and a corrupted register
// melts it back awake and is detected within the Theorem 8.5 budget.
func TestFacadeWorklist(t *testing.T) {
	g, err := RandomGraph(48, 110, 7)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifierWorklist(l, 1)
	budget := DetectionBudget(g.N())
	froze := false
	for i := 0; i < budget && !froze; i++ {
		v.Step()
		froze = v.Eng.LastActive() == 0
	}
	if !froze {
		t.Fatal("worklist network never froze")
	}
	steps := v.Eng.StepsTaken()
	v.Eng.RunSyncRounds(25)
	if got := v.Eng.StepsTaken() - steps; got != 0 {
		t.Fatalf("%d machine steps over 25 quiet rounds, want 0", got)
	}
	v.Inject(5, func(s *VState) { s.L.SP.Dist += 3 })
	if _, _, detected := v.RunUntilAlarm(2 * budget); !detected {
		t.Fatal("worklist verifier missed the corruption")
	}
}

// TestRandomGraphValidatesSize pins the facade's argument contract: sizes
// that admit no connected simple graph are errors, never panics.
func TestRandomGraphValidatesSize(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		ok   bool
	}{
		{1, 0, true},
		{2, 1, true},
		{10, 9, true},
		{10, 45, true},
		{0, 0, false},
		{-3, 0, false},
		{1, 1, false},
		{10, 3, false},
		{10, 8, false},
		{10, 46, false},
		{4, -1, false},
	} {
		g, err := RandomGraph(tc.n, tc.m, 1)
		switch {
		case tc.ok && err != nil:
			t.Errorf("RandomGraph(%d, %d): %v", tc.n, tc.m, err)
		case tc.ok && (g.N() != tc.n || g.M() != tc.m):
			t.Errorf("RandomGraph(%d, %d) built n=%d m=%d", tc.n, tc.m, g.N(), g.M())
		case !tc.ok && err == nil:
			t.Errorf("RandomGraph(%d, %d) accepted a size with no connected simple graph", tc.n, tc.m)
		}
	}
}

// TestFacadeDegenerateGraphs marks the smallest shapes through the facade
// — a lone node (a trivial MST with no edges), a path, a star and K4 —
// and requires every verifier mode to stay silent for the full detection
// budget, then to detect a corrupted distance label within it.
func TestFacadeDegenerateGraphs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"single", graph.New(1, nil)},
		{"path", graph.Path(5, 1)},
		{"star", graph.Star(6, 2)},
		{"K4", graph.Complete(4, 3)},
	} {
		l, err := Mark(tc.g)
		if err != nil {
			t.Errorf("%s: Mark: %v", tc.name, err)
			continue
		}
		budget := DetectionBudget(tc.g.N())
		for _, v := range []struct {
			mode string
			r    *Verifier
		}{
			{"sync", NewVerifier(l, Sync, 1)},
			{"async", NewVerifier(l, Async, 1)},
			{"worklist", NewVerifierWorklist(l, 1)},
		} {
			if err := v.r.RunQuiet(budget); err != nil {
				t.Errorf("%s/%s: %v", tc.name, v.mode, err)
				continue
			}
			v.r.Inject(0, func(s *VState) { s.L.SP.Dist += 3 })
			if _, _, detected := v.r.RunUntilAlarm(budget); !detected {
				t.Errorf("%s/%s: corrupted distance label never detected", tc.name, v.mode)
			}
		}
	}
}
