package verify

import (
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/train"
)

// TestAdvanceLevelResetsPerLevelRegisters locks the single-owner wrap
// invariant: every site that moves the Ask cursor goes through advanceLevel,
// which wraps AskIdx into [0, numLevels) and resets every per-level sampler
// register — the capture timer, the asynchronous server sweep, the Want
// request and the captured candidate port. (The capture-timeout path used to
// inline its own wrap, which reset only CapTimer; a corrupted ServerCur or a
// stale Want could then leak across levels.)
func TestAdvanceLevelResetsPerLevelRegisters(t *testing.T) {
	s := &VState{
		AskIdx:    2,
		AskValid:  true,
		CapTimer:  9,
		ServerCur: 3,
		ServerTmr: 4,
		CandPort:  5,
		Want:      train.Want{Valid: true, ServerID: 42, Level: 1},
	}
	s.advanceLevel(3)
	if s.AskIdx != 0 {
		t.Fatalf("AskIdx = %d after wrap from 2 over 3 levels, want 0", s.AskIdx)
	}
	if s.AskValid || s.CapTimer != 0 || s.ServerCur != 0 || s.ServerTmr != 0 {
		t.Fatalf("per-level registers not reset: %+v", s)
	}
	if s.Want != (train.Want{}) {
		t.Fatalf("Want not cleared: %+v", s.Want)
	}
	if s.CandPort != -1 {
		t.Fatalf("CandPort = %d after level advance, want -1", s.CandPort)
	}
}

// TestSamplerAskIdxInRangeAfterLevelShrink injects label faults that shrink
// every node's claimed-level set J(v) while pushing the Ask cursor far out
// of range, then asserts the cursor is back inside [0, |J(v)|) after every
// subsequent round — the invariant the unified advanceLevel wrap (plus the
// entry clamp) must maintain even when |J(v)| changes between rounds.
func TestSamplerAskIdxInRangeAfterLevelShrink(t *testing.T) {
	g := graph.RandomConnected(48, 120, 21)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(l, Sync, 4)
	r.Eng.Workers = 1
	r.Eng.RunSyncRounds(DetectionBudget(g.N()) / 8)

	for v := 0; v < g.N(); v++ {
		r.Inject(v, func(s *VState) {
			// Withdraw every claimed level above the lowest one and push the
			// cursor well past any legal index.
			first := true
			for j := range s.L.HS.Roots {
				if s.L.HS.Roots[j] == hierarchy.RootsNone {
					continue
				}
				if first {
					first = false
					continue
				}
				s.L.HS.Roots[j] = hierarchy.RootsNone
			}
			s.AskIdx = 997
		})
	}
	for i := 0; i < 60; i++ {
		r.Step()
		for v := 0; v < g.N(); v++ {
			st := r.Eng.State(v).(*VState)
			levels := appendClaimedLevels(nil, &st.L.HS)
			if len(levels) == 0 {
				if st.AskValid {
					t.Fatalf("round %d node %d: AskValid with empty level set", i, v)
				}
				continue
			}
			if st.AskIdx < 0 || st.AskIdx >= len(levels) {
				t.Fatalf("round %d node %d: AskIdx %d outside [0,%d)", i, v, st.AskIdx, len(levels))
			}
		}
	}
}
