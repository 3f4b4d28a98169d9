// Asynchronous verification: run the verifier under a randomized
// weakly-fair daemon with jitter. The Ask/Show/Want handshake (§7.2.2)
// keeps comparisons sound even when activations interleave arbitrarily;
// detection takes O(Δ log³ n) time.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ssmst"
	"ssmst/internal/verify"
)

func main() {
	g, err := ssmst.RandomGraph(32, 80, 13)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d Δ=%d (asynchronous daemon, jitter 0.4)\n",
		g.N(), g.M(), g.MaxDegree())

	labeled, err := ssmst.Mark(g)
	if err != nil {
		log.Fatal(err)
	}
	v := ssmst.NewVerifier(labeled, ssmst.Async, 2)
	v.Eng.Jitter = 0.4

	quiet := ssmst.DetectionBudget(g.N())
	if err := v.RunQuiet(quiet); err != nil {
		log.Fatalf("false alarm under asynchrony: %v", err)
	}
	fmt.Printf("verifier silent for %d asynchronous time units ✓\n", quiet)

	rng := rand.New(rand.NewSource(17))
	node := 5
	if !v.InjectKind(node, verify.FaultRootsEntry, rng) {
		log.Fatal("fault injection failed")
	}
	rounds, alarms, ok := v.RunUntilAlarm(4 * quiet)
	if !ok {
		log.Fatal("fault not detected")
	}
	fmt.Printf("fault at node %d detected after %d asynchronous time units at %v\n",
		node, rounds, alarms)
}
