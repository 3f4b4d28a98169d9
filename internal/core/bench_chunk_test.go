package core

import (
	"fmt"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/verify"
)

// BenchmarkQuietRoundChunk sweeps Engine.ChunkSize over a settled dense
// coast network on the pool path — the tuning run behind the stepChunk
// choice. The quiet round is where the per-node cost is smallest, so it is
// where the atomic-cursor amortization point shows most clearly.
// Run with -cpu to see the contention side; on a single-core box only the
// amortization slope is visible (larger chunks monotonically cheaper), so
// the default balances against worker-starvation on skewed detection
// rounds rather than against this curve alone.
func BenchmarkQuietRoundChunk(b *testing.B) {
	const n = 16384
	g := graph.RandomConnected(n, 3*n, 1)
	l, err := verify.Mark(g)
	if err != nil {
		b.Fatal(err)
	}
	r := verify.NewCoastRunner(l, 1)
	r.Eng.ForcePool = true
	r.Eng.ParallelThreshold = 1
	if !settleCoasting(r, n, false) {
		b.Fatal("network never settled into coasting")
	}
	for _, cs := range []int{32, 64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("chunk=%d", cs), func(b *testing.B) {
			r.Eng.ChunkSize = cs
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Eng.RunSyncRounds(1)
			}
		})
	}
}
