// Command benchjson emits the repository's perf-trajectory snapshot as
// machine-readable JSON: ns/round, allocs/round and B/round of the §7
// verifier machine at n ∈ {1024, 4096, 16384}, in two step configurations —
// every label layer re-checked each round ("full-recheck", the PR2
// configuration) and the incremental verifier ("incremental", static label
// verdicts memoized, label copies elided and the sampler sweep batched —
// re-checked only on neighbourhood change). CI's bench-smoke job
// runs it and uploads the file as an artifact under a per-PR name, so
// successive PRs accumulate comparable numbers instead of silently
// overwriting the previous trajectory point. The measurement itself is
// core.MeasureVerifierRound — the same code that produces the E14b table.
//
// The report additionally carries one "churn" row: the detection latency
// (in rounds) of a live MST-breaking weight flip at n=4096, applied through
// Engine.MutateTopology with the incremental verifier running — the
// live-topology workload's headline number, tracked in the same trajectory
// file as the round costs.
//
// The adversarial-campaign rows extend the trajectory: "campaign" rows
// record the detection latency of a k-edit corrupted spanning tree going
// live under honest labels, for every graph family at n=1024 and
// k ∈ {1, 4, 16, n/4} (deterministic, guarded for exact reproduction —
// each run is double-checked against the centralized oracles before being
// recorded), and one "oracle" row records the wall time of a combined
// centralized cross-check (DFS T-lightness + cycle Union-Find) at n=4096 —
// the sequential baseline the distributed round costs are read against.
//
// The quiet-coast rows (PR 8) record the steady-state round cost over a
// fully certified, unchanging network — the sparse worklist engine against
// the dense full-sweep coast reference at n ∈ {4096, 16384, 65536}. These
// carry their own baseline-independent guard: the worklist quiet round at
// n=65536 must stay within 2× of the n=4096 value (the O(active + Δ)
// contract — a quiet round must not scale with n), enforced on every run
// unless SSMST_BENCH_SKIP_GUARD is set.
//
// The multi-core rows (PR 9) are the first scaling table across cores: the
// dense incremental quiet round ("mc-quiet") and the wall time of a full
// churn-detection episode ("mc-detect"), each at n ∈ {4096, 16384, 65536}
// with GOMAXPROCS pinned per row to the values of -gomaxprocs (default
// "1,4,8") and the engine's fan-out capped to match — every row carries its
// "gomaxprocs" column, so successive trajectory files compare like for
// like. Counts above runtime.NumCPU() are skipped with a message (a pinned
// oversubscribed row would measure scheduler thrash, not the engine), and
// multi-worker rows require NumCPU ≥ 4. The mc-detect round count is
// barrier-deterministic, so it must agree across the worker counts of one
// run — checked on every run — and reproduce any baseline row exactly.
//
// -out has no default: every caller (CI included) names its own snapshot
// explicitly. With -baseline the command additionally guards against
// perf regressions: it compares the freshly measured incremental quiet
// round at n=4096 against the committed baseline file and exits non-zero
// when it is more than -maxregress slower, and checks the deterministic
// churn detection latency for exact reproduction (skipping, with a message,
// baselines that predate the churn row). A missing baseline file is an
// explicit error, never a zero-value comparison. Noisy or slow runners can
// skip the guard (never the measurement) by setting SSMST_BENCH_SKIP_GUARD=1.
//
// Usage:
//
//	go run ./cmd/benchjson -out BENCH_pr4.json -rounds 30
//	go run ./cmd/benchjson -out BENCH_pr4.json -baseline BENCH_pr4.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	gort "runtime"
	"strconv"
	"strings"
	"time"

	"ssmst/internal/core"
	"ssmst/internal/graph"
	"ssmst/internal/oracle"
	"ssmst/internal/verify"
)

// Result is one measured configuration. Exactly one of the two payloads is
// set: the round-cost block (nil — and absent from the JSON — on the churn
// row, so trajectory tooling never reads a bogus 0 ns datapoint) or the
// churn detection latency.
type Result struct {
	N    int    `json:"n"`
	Path string `json:"path"` // "incremental" | "full-recheck" | "churn" | "campaign" | "oracle"
	*core.RoundCost
	// DetectRounds is set on the "churn" and "campaign" rows: rounds from
	// the fault (a live MST-breaking weight flip, or a k-corrupted tree
	// going live) to the first alarm.
	DetectRounds int `json:"detect_rounds,omitempty"`
	// Family and K identify a "campaign" row: the graph family and the
	// corruption density of the corrupted-MST detection-latency sweep.
	Family string `json:"family,omitempty"`
	K      int    `json:"k,omitempty"`
	// OracleNs is set on the "oracle" row only: wall time of one combined
	// centralized cross-check (T-lightness + cycle Union-Find) on the MST
	// of the guarded instance — the perf baseline the distributed
	// verifier's round costs are read against.
	OracleNs int64 `json:"oracle_ns,omitempty"`
	// GoMaxProcs is the pinned scheduler width of a multi-core row
	// ("mc-quiet", "mc-detect"); 0 on the single-core rows, whose
	// effective value is the report-level field. Guards must match rows on
	// (n, path, gomaxprocs), never compare across widths.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// DetectNs is set on the "mc-detect" rows: wall time of the whole
	// detection episode (fault to first alarm) at the row's width.
	DetectNs int64 `json:"detect_ns,omitempty"`
}

// Report is the file schema.
type Report struct {
	Bench    string   `json:"bench"`
	Machine  string   `json:"machine"`
	GoMaxPro int      `json:"gomaxprocs"`
	Rounds   int      `json:"rounds"`
	Results  []Result `json:"results"`
}

// The guarded row: the incremental quiet round at this n is the quantity
// every PR's headline perf claim is made on.
const (
	guardN    = 4096
	guardPath = "incremental"
	// campaignN is the corrupted-MST k-sweep size (k tops out at n/4).
	campaignN = 1024
)

func main() {
	out := flag.String("out", "", "output file (required)")
	rounds := flag.Int("rounds", 30, "measured rounds per configuration")
	baseline := flag.String("baseline", "", "committed baseline report to guard against (optional)")
	maxRegress := flag.Float64("maxregress", 0.25, "allowed fractional ns/round regression on the guarded row")
	gomaxprocs := flag.String("gomaxprocs", "1,4,8", "comma-separated GOMAXPROCS values for the multi-core rows")
	flag.Parse()
	if *out == "" {
		log.Fatal("benchjson: -out is required (e.g. -out BENCH_pr4.json); the trajectory file is named per PR, never defaulted")
	}

	// Read the baseline before measuring (and before writing: -out and
	// -baseline may name the same committed file). A missing baseline file
	// is a hard, explicit error — comparing against a zero-value Report
	// would make every measurement look like an infinite regression (or,
	// worse, a pass against 0 ns).
	var base *Report
	skipGuard := os.Getenv("SSMST_BENCH_SKIP_GUARD") != ""
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err == nil {
			base = new(Report)
			if perr := json.Unmarshal(data, base); perr != nil {
				base, err = nil, fmt.Errorf("parse %s: %w", *baseline, perr)
			}
		}
		switch {
		case err == nil:
		case skipGuard:
			// The env var's contract: skip the guard, never the measurement —
			// a missing, unreadable or corrupt baseline must not kill the run
			// when the guard is off.
			fmt.Printf("bench guard: baseline unusable (%v); guard skipped (SSMST_BENCH_SKIP_GUARD set), measurement proceeds\n", err)
		case os.IsNotExist(err):
			log.Fatalf("benchjson: baseline %s does not exist — bootstrap it with 'go run ./cmd/benchjson -out %s' on a trusted build, or drop -baseline to measure without the guard",
				*baseline, *baseline)
		default:
			log.Fatalf("benchjson: baseline: %v", err)
		}
	}

	rep := Report{
		Bench:    "verifier-round",
		Machine:  gort.GOOS + "/" + gort.GOARCH,
		GoMaxPro: gort.GOMAXPROCS(0),
		Rounds:   *rounds,
	}
	for _, n := range []int{1024, 4096, 16384} {
		g := graph.RandomConnected(n, 3*n, 1)
		l, err := verify.Mark(g)
		if err != nil {
			log.Fatalf("mark n=%d: %v", n, err)
		}
		for _, cfg := range []struct {
			path        string
			fullRecheck bool
		}{
			{"incremental", false},
			{"full-recheck", true},
		} {
			cost := core.MeasureVerifierRound(g, l, cfg.fullRecheck, *rounds, 1)
			rep.Results = append(rep.Results, Result{N: n, Path: cfg.path, RoundCost: &cost})
		}
	}
	// Quiet-coast rows (PR 8): the steady-state cost of one round over a
	// fully certified, unchanging network — the sparse worklist engine
	// against the dense full-sweep coast reference, at sizes extending past
	// the per-round trajectory (65536 is where Θ(n) and O(active + Δ) are
	// unmistakably apart). The worklist rows run many more rounds per
	// window: at nanosecond-scale rounds the measurement needs the extra
	// resolution.
	for _, n := range []int{4096, 16384, 65536} {
		for _, cfg := range []struct {
			path     string
			worklist bool
			rounds   int
		}{
			{"coast-worklist", true, 4096},
			{"coast-dense", false, *rounds},
		} {
			cost, ok := core.MeasureCoastQuietRound(n, cfg.worklist, cfg.rounds, 1)
			if !ok {
				log.Fatalf("benchjson: quiet-coast n=%d %s: network never fully certified", n, cfg.path)
			}
			rep.Results = append(rep.Results, Result{N: n, Path: cfg.path, RoundCost: &cost})
		}
	}

	// Multi-core rows (PR 9): the dense incremental quiet round and the
	// detection-episode wall time across scheduler widths. GOMAXPROCS is
	// pinned per row (and restored afterwards — the rest of the report is
	// measured at the process default); the engine's fan-out is capped to
	// the same count, so a row prices exactly the width it is labelled with.
	widths, err := parseWidths(*gomaxprocs)
	if err != nil {
		log.Fatalf("benchjson: -gomaxprocs: %v", err)
	}
	defaultProcs := gort.GOMAXPROCS(0)
	for _, k := range widths {
		switch {
		case k > 1 && gort.NumCPU() < 4:
			fmt.Printf("bench: mc rows at gomaxprocs=%d skipped: multi-core rows need NumCPU >= 4 (have %d)\n", k, gort.NumCPU())
			continue
		case k > gort.NumCPU():
			fmt.Printf("bench: mc rows at gomaxprocs=%d skipped: only %d CPUs (a pinned oversubscribed row measures scheduler thrash, not the engine)\n", k, gort.NumCPU())
			continue
		}
		gort.GOMAXPROCS(k)
		for _, n := range []int{4096, 16384, 65536} {
			g := graph.RandomConnected(n, 3*n, 1)
			l, err := verify.Mark(g)
			if err != nil {
				log.Fatalf("mc mark n=%d: %v", n, err)
			}
			cost := core.MeasureMultiCoreRound(g, l, k, *rounds, 1)
			rep.Results = append(rep.Results, Result{N: n, Path: "mc-quiet", GoMaxProcs: k, RoundCost: &cost})
			det, ok := core.MeasureMultiCoreDetection(n, k, 1)
			if !ok {
				log.Fatalf("benchjson: mc-detect n=%d gomaxprocs=%d: no alarm within budget", n, k)
			}
			rep.Results = append(rep.Results, Result{
				N: n, Path: "mc-detect", GoMaxProcs: k,
				DetectRounds: det.DetectRounds, DetectNs: det.DetectNs,
			})
		}
		gort.GOMAXPROCS(defaultProcs)
	}
	// Synchronous rounds are barrier-deterministic: the detection round
	// count of one instance must not vary with the scheduler width. A
	// mismatch inside a single run means the parallel step leaked
	// nondeterminism — fatal regardless of any baseline.
	for _, row := range rep.Results {
		if row.Path != "mc-detect" {
			continue
		}
		for _, other := range rep.Results {
			if other.Path == "mc-detect" && other.N == row.N && other.DetectRounds != row.DetectRounds {
				log.Fatalf("benchjson: mc-detect n=%d: detection took %d rounds at gomaxprocs=%d but %d at gomaxprocs=%d — parallel stepping is nondeterministic",
					row.N, row.DetectRounds, row.GoMaxProcs, other.DetectRounds, other.GoMaxProcs)
			}
		}
	}

	// The churn row: detection latency after a live MST-breaking weight flip
	// at the guarded n — the new workload's headline number, tracked in the
	// same trajectory file as the round costs. A failed measurement (never
	// detected, or no event planned) is fatal — but only AFTER the report is
	// written: the round costs already measured must persist so the failure
	// can be diagnosed from the artifact.
	churn, churnPlanned := core.MeasureChurnDetection(guardN, verify.ChurnWeightBreak, 1)
	if churnPlanned && churn.Detected {
		rep.Results = append(rep.Results, Result{N: guardN, Path: "churn", DetectRounds: churn.DetectRounds})
	}

	// Campaign rows: the corrupted-MST detection-latency k-sweep — every
	// family at the sweep size, k from a single edit to n/4. Fully seeded
	// (graph, corruption and engine all derive from the spec seed), so the
	// latencies are deterministic and guarded for exact reproduction.
	for _, fam := range core.Families() {
		for _, k := range []int{1, 4, 16, campaignN / 4} {
			spec := core.CampaignSpec{
				Family: fam, N: campaignN, Scenario: core.ScenarioCorrupt, K: k,
				Seed: verify.SubSeed(1, int64(campaignN), int64(k)),
			}
			res, err := core.RunCampaign(spec)
			if err != nil {
				log.Fatalf("benchjson: campaign %s k=%d: %v", fam, k, err)
			}
			if !res.Agree || !res.Detected {
				log.Fatalf("benchjson: campaign %s k=%d: network disagrees with the oracles (detected=%v)", fam, k, res.Detected)
			}
			rep.Results = append(rep.Results, Result{
				N: campaignN, Path: "campaign", Family: fam, K: k, DetectRounds: res.DetectRounds,
			})
		}
	}

	// The oracle baseline row: one combined centralized cross-check on the
	// guarded instance's true MST, min over a few samples (wall time, so
	// noisy — reported as a baseline, not gated).
	{
		g := graph.RandomConnected(guardN, 3*guardN, 1)
		tree, err := graph.Kruskal(g, graph.ByWeight(g))
		if err != nil {
			log.Fatalf("benchjson: oracle baseline: %v", err)
		}
		best := int64(-1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			isMST, err := oracle.CrossCheck(g, tree, graph.ByWeight(g))
			ns := time.Since(start).Nanoseconds()
			if err != nil || !isMST {
				log.Fatalf("benchjson: oracle baseline: oracles rejected the Kruskal MST (err=%v)", err)
			}
			if best < 0 || ns < best {
				best = ns
			}
		}
		rep.Results = append(rep.Results, Result{N: guardN, Path: "oracle", OracleNs: best})
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d results)\n", *out, len(rep.Results))

	if !churnPlanned || !churn.Detected {
		log.Fatalf("benchjson: churn measurement failed at n=%d (planned=%v detected=%v); %s was still written without the churn row",
			guardN, churnPlanned, churn.Detected, *out)
	}

	// The PR 8 sub-linearity gate is self-contained (no baseline needed):
	// the worklist quiet round must not scale with n, pinned as "n=65536
	// within 2× of n=4096". Both numbers are already best-of-5 windows; the
	// absolute floor keeps sub-100ns timer jitter out of the margin — a
	// quiet round that regressed to Θ(n) at 65536 sits at ~1e6 ns, three
	// orders of magnitude past it.
	if !skipGuard {
		base := findCoastRow(&rep, "coast-worklist", 4096)
		big := findCoastRow(&rep, "coast-worklist", 65536)
		if base == nil || big == nil {
			log.Fatal("bench guard: quiet-coast worklist rows missing from the measurement")
		}
		limit := 2 * base.NsPerRound
		if limit < 100 {
			limit = 100
		}
		fmt.Printf("bench guard: worklist quiet round: n=65536 %d ns vs n=4096 %d ns (limit %d)\n",
			big.NsPerRound, base.NsPerRound, limit)
		if big.NsPerRound > limit {
			log.Fatalf("bench guard: worklist quiet round scales with n: %d ns at n=65536 exceeds 2x the %d ns at n=4096 — the O(active + Δ) contract is broken",
				big.NsPerRound, base.NsPerRound)
		}
	}

	if base != nil {
		if skipGuard {
			fmt.Println("bench guard: skipped (SSMST_BENCH_SKIP_GUARD set)")
			return
		}
		want, got := findGuardRow(base), findGuardRow(&rep)
		if want == nil || want.RoundCost == nil {
			log.Fatalf("bench guard: baseline %s has no (n=%d, %s) cost row", *baseline, guardN, guardPath)
		}
		if got == nil || got.RoundCost == nil {
			log.Fatalf("bench guard: measurement produced no (n=%d, %s) cost row", guardN, guardPath)
		}
		// The committed baseline is a min over repeated runs; judging it
		// against a single fresh sample would bias the guard toward false
		// failures on a noisy runner. Re-measure the guarded row once more
		// and keep the better sample before comparing.
		g := graph.RandomConnected(guardN, 3*guardN, 1)
		if l, err := verify.Mark(g); err == nil {
			if c := core.MeasureVerifierRound(g, l, false, *rounds, 1); c.NsPerRound < got.NsPerRound {
				got.NsPerRound = c.NsPerRound
			}
		}
		limit := float64(want.NsPerRound) * (1 + *maxRegress)
		fmt.Printf("bench guard: quiet round n=%d %s: %d ns/round vs baseline %d (limit %.0f)\n",
			guardN, guardPath, got.NsPerRound, want.NsPerRound, limit)
		if float64(got.NsPerRound) > limit {
			log.Fatalf("bench guard: regression: %d ns/round exceeds baseline %d by more than %.0f%% (set SSMST_BENCH_SKIP_GUARD=1 on noisy runners)",
				got.NsPerRound, want.NsPerRound, 100**maxRegress)
		}

		// Churn detection latency is deterministic (fixed seed, synchronous
		// rounds): the baseline value must reproduce exactly. A baseline
		// predating the churn row skips the comparison explicitly rather
		// than comparing against a zero value.
		wantC, gotC := findRow(base, "churn"), findRow(&rep, "churn")
		switch {
		case wantC == nil:
			fmt.Printf("bench guard: baseline %s has no (n=%d, churn) row (predates the churn workload); churn comparison skipped\n",
				*baseline, guardN)
		case gotC == nil:
			log.Fatalf("bench guard: measurement produced no (n=%d, churn) row", guardN)
		case wantC.DetectRounds != gotC.DetectRounds:
			log.Fatalf("bench guard: churn detection latency changed: %d rounds vs baseline %d (deterministic; a change means the detection pipeline behaves differently)",
				gotC.DetectRounds, wantC.DetectRounds)
		default:
			fmt.Printf("bench guard: churn detection n=%d: %d rounds, matches baseline\n", guardN, gotC.DetectRounds)
		}

		// Campaign detection latencies are deterministic like the churn row:
		// every baseline campaign row must reproduce exactly. Baselines
		// predating the campaign sweep skip the comparison explicitly.
		baseCampaign := campaignRows(base)
		if len(baseCampaign) == 0 {
			fmt.Printf("bench guard: baseline %s has no (family=*, k=*) campaign rows (predates the fault-campaign sweep); campaign comparison skipped\n", *baseline)
		} else {
			for _, want := range baseCampaign {
				got := findCampaignRow(&rep, want.Family, want.K)
				if got == nil {
					log.Fatalf("bench guard: measurement produced no campaign row (family=%s, k=%d)", want.Family, want.K)
				}
				if got.DetectRounds != want.DetectRounds {
					log.Fatalf("bench guard: campaign detection latency changed (family=%s, k=%d): %d rounds vs baseline %d (deterministic; a change means the detection pipeline behaves differently)",
						want.Family, want.K, got.DetectRounds, want.DetectRounds)
				}
			}
			fmt.Printf("bench guard: %d campaign rows match baseline\n", len(baseCampaign))
		}
		// Multi-core rows compare strictly like for like: a baseline row is
		// matched on (n, path, gomaxprocs) and checked only when the fresh
		// run measured the same cell — rows the baseline predates (or this
		// host could not measure: fewer CPUs, narrower -gomaxprocs) are
		// skipped with a message, never compared against zero values.
		mcChecked, mcSkipped := 0, 0
		for i := range base.Results {
			want := &base.Results[i]
			if want.Path != "mc-quiet" && want.Path != "mc-detect" {
				continue
			}
			got := findMCRow(&rep, want.Path, want.N, want.GoMaxProcs)
			if got == nil {
				fmt.Printf("bench guard: baseline %s row (%s, n=%d, gomaxprocs=%d) not measured in this run; comparison skipped\n",
					*baseline, want.Path, want.N, want.GoMaxProcs)
				mcSkipped++
				continue
			}
			mcChecked++
			switch want.Path {
			case "mc-detect":
				if got.DetectRounds != want.DetectRounds {
					log.Fatalf("bench guard: mc-detect n=%d gomaxprocs=%d: %d rounds vs baseline %d (deterministic; a change means the detection pipeline behaves differently)",
						want.N, want.GoMaxProcs, got.DetectRounds, want.DetectRounds)
				}
			case "mc-quiet":
				if want.RoundCost == nil || got.RoundCost == nil {
					log.Fatalf("bench guard: mc-quiet n=%d gomaxprocs=%d: row carries no cost block", want.N, want.GoMaxProcs)
				}
				limit := float64(want.NsPerRound) * (1 + *maxRegress)
				if float64(got.NsPerRound) > limit {
					log.Fatalf("bench guard: mc-quiet n=%d gomaxprocs=%d regression: %d ns/round exceeds baseline %d by more than %.0f%%",
						want.N, want.GoMaxProcs, got.NsPerRound, want.NsPerRound, 100**maxRegress)
				}
			}
		}
		if mcChecked > 0 || mcSkipped > 0 {
			fmt.Printf("bench guard: %d multi-core rows match baseline (%d skipped)\n", mcChecked, mcSkipped)
		} else {
			fmt.Printf("bench guard: baseline %s has no (mc-quiet, mc-detect) rows (predates the PR 9 scaling table); mc comparison skipped\n", *baseline)
		}
		if findRow(&rep, "oracle") == nil {
			log.Fatalf("bench guard: measurement produced no (n=%d, oracle) baseline row", guardN)
		}
	}
}

// parseWidths parses the -gomaxprocs list: positive integers, de-duplicated,
// order preserved.
func parseWidths(s string) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("%q is not a positive worker count", part)
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func findMCRow(r *Report, path string, n, procs int) *Result {
	for i := range r.Results {
		res := &r.Results[i]
		if res.Path == path && res.N == n && res.GoMaxProcs == procs {
			return res
		}
	}
	return nil
}

// campaignRows collects every campaign k-sweep row of a report.
func campaignRows(r *Report) []*Result {
	var out []*Result
	for i := range r.Results {
		if r.Results[i].Path == "campaign" {
			out = append(out, &r.Results[i])
		}
	}
	return out
}

func findCampaignRow(r *Report, family string, k int) *Result {
	for i := range r.Results {
		res := &r.Results[i]
		if res.Path == "campaign" && res.Family == family && res.K == k {
			return res
		}
	}
	return nil
}

func findCoastRow(r *Report, path string, n int) *Result {
	for i := range r.Results {
		if r.Results[i].N == n && r.Results[i].Path == path {
			return &r.Results[i]
		}
	}
	return nil
}

func findGuardRow(r *Report) *Result { return findRow(r, guardPath) }

func findRow(r *Report, path string) *Result {
	for i := range r.Results {
		if r.Results[i].N == guardN && r.Results[i].Path == path {
			return &r.Results[i]
		}
	}
	return nil
}
