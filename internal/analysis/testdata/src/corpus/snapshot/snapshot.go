// Package snapshot re-seeds the write through the read snapshot: a hot step
// that acknowledges a neighbour's pending request by clearing it in the
// neighbour's own state, which every concurrent step of the round is
// reading.
package snapshot

// State is one node's register content.
type State struct {
	ID   int
	Want int // ID of the neighbour whose service is requested, -1 if none
}

// View mimics the engine's per-(node, round) window by method shape.
type View struct {
	states []*State
	node   int
	peers  []int
}

// Self returns the node's own read-buffer state.
func (v *View) Self() *State { return v.states[v.node] }

// Neighbour returns the read-buffer state behind a port.
func (v *View) Neighbour(q int) *State { return v.states[v.peers[q]] }

// Step serves the request of the neighbour at port 0 and clears it at the
// source instead of letting the neighbour observe the service next round.
//
//ssmst:hotpath
func Step(v *View, dst *State) {
	*dst = *v.Self()
	if nb := v.Neighbour(0); nb.Want == dst.ID {
		nb.Want = -1
	}
}
