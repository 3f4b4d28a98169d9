// Fault detection: inject each fault kind into a verified MST instance and
// measure detection time and distance (Theorem 8.5: O(log² n) rounds,
// O(f log n) distance).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ssmst"
	"ssmst/internal/verify"
)

func main() {
	g, err := ssmst.RandomGraph(64, 160, 7)
	if err != nil {
		log.Fatal(err)
	}
	budget := ssmst.DetectionBudget(g.N())
	fmt.Printf("graph: n=%d m=%d; detection budget %d rounds\n", g.N(), g.M(), budget)

	kinds := []struct {
		kind verify.FaultKind
		name string
	}{
		{verify.FaultStoredPieceW, "stored piece ω̂ corrupted"},
		{verify.FaultStoredPieceID, "stored piece identifier corrupted"},
		{verify.FaultRootsEntry, "Roots string entry flipped"},
		{verify.FaultEndPEntry, "EndP string entry flipped"},
		{verify.FaultSPDist, "spanning-tree distance corrupted"},
		{verify.FaultSizeN, "claimed node count corrupted"},
		{verify.FaultComponent, "parent pointer re-aimed"},
	}
	rng := rand.New(rand.NewSource(3))
	for _, k := range kinds {
		labeled, err := ssmst.Mark(g)
		if err != nil {
			log.Fatal(err)
		}
		v := ssmst.NewVerifier(labeled, ssmst.Sync, 1)
		v.Eng.RunSyncRounds(budget / 4) // warm up: trains cycling
		node := rng.Intn(g.N())
		if !v.InjectKind(node, k.kind, rng) {
			for node = 0; node < g.N(); node++ {
				if v.InjectKind(node, k.kind, rng) {
					break
				}
			}
		}
		rounds, alarms, ok := v.RunUntilAlarm(2 * budget)
		if !ok {
			fmt.Printf("%-36s NOT DETECTED (configuration may still be a valid proof)\n", k.name)
			continue
		}
		d := verify.DetectionDistance(g, []int{node}, alarms)[0]
		fmt.Printf("%-36s detected in %4d rounds at distance %d (%d alarming nodes)\n",
			k.name, rounds, d, len(alarms))
	}
}
