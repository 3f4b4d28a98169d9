package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ssmst/internal/graph"
	"ssmst/internal/oracle"
	"ssmst/internal/selfstab"
	"ssmst/internal/verify"
)

// sizes fixes every input size of the four workloads.
type sizes struct {
	markN      int // mark-65k: nodes (m = 2n)
	markQuiet  int // mark-65k: silent rounds before the fault
	cellN      int // corrupt-detect: nodes per cell
	cellsPer   int // corrupt-detect: corrupted cells per family
	cellQuiet  int // corrupt-detect: silent rounds of each family's control cell
	churnN     int // quiet-churn: nodes (m = 2n)
	churnQuiet int // quiet-churn: rounds of the measured quiet window
	churnEvery int // quiet-churn: rounds between preserving churn events
	stabN      int // selfstab-build: nodes (m = 2n)
	stabQuiet  int // selfstab-build: silent check-phase rounds after stabilizing
	stabSetups int // selfstab-build: set-ups per iteration (set-up is cheap; the median is reported)
}

// fullSizes are the benchmark's sizes; the self-test runs tinySizes.
var fullSizes = sizes{
	markN: 65536, markQuiet: 16,
	cellN: 4096, cellsPer: 4, cellQuiet: 128,
	churnN: 4096, churnQuiet: 512, churnEvery: 16,
	stabN: 1024, stabQuiet: 2048, stabSetups: 9,
}

// families are corrupt-detect's graph families. Geometric is left out: its
// generator alone takes 0.5–1.1 s at n=4096 and would swamp the verifier.
var families = []string{"random", "powerlaw", "highgirth"}

// labelFaults are the static label-layer faults mark-65k injects: each is
// checked locally every round, so the episode measures the round loop at
// n=65536, not a train's travel time.
var labelFaults = []verify.FaultKind{verify.FaultSPDist, verify.FaultSizeN, verify.FaultRootsEntry, verify.FaultEndPEntry}

// preservingChurn are the MST-preserving churn kinds quiet-churn cycles
// through; the verifier must stay silent under each.
var preservingChurn = []verify.ChurnKind{verify.ChurnWeightKeep, verify.ChurnCut, verify.ChurnAddHeavy}

// sample is one iteration of a workload: the whole pipeline from the seed.
type sample struct {
	traced bool
	wall   time.Duration

	setup  time.Duration   // seed to ready instance(s)
	setups []time.Duration // every set-up, where an iteration repeats it

	quiet        time.Duration // silent windows, churn application included
	quietRounds  int
	detect       time.Duration // fault, churn or corrupted tree to first alarm
	detectRounds int
	stab         time.Duration // clean start to stable MST output
	stabRounds   int
	// roundMs times every measured round: silent windows and the rounds
	// between an event and its verdict (set-up and settling excluded).
	roundMs roundTimes

	heapPerNode float64 // live heap of the ready instance over n

	// Traced-run figures.
	labelBytes, engineBytes []float64 // heap deltas across the marker and the engine build, per node
	churnApply              time.Duration
	marks                   markStats
	spans                   []span

	// Engine and verifier work over every round the iteration stepped.
	rounds             int
	steps              int64
	recomputes, copies int64
	maxLabelBits       int
	maxStateBits       int
	constructionTime   int
}

// exact returns the counts that must repeat exactly across iterations,
// runs, and the traced and untraced paths.
func (s *sample) exact() map[string]int64 {
	return map[string]int64{
		"detect_rounds":     int64(s.detectRounds),
		"stabilize_rounds":  int64(s.stabRounds),
		"quiet_rounds":      int64(s.quietRounds),
		"rounds":            int64(s.rounds),
		"steps":             s.steps,
		"static_recomputes": s.recomputes,
		"label_copies":      s.copies,
		"max_state_bits":    int64(s.maxStateBits),
		"max_label_bits":    int64(s.maxLabelBits),
		"construction_time": int64(s.constructionTime),
	}
}

// account adds a finished verifier engine's work to the sample and checks
// that the largest label fits the largest state measured.
func (p *pipe) account(s *sample, r *verify.Runner) {
	p.expect("labels fit the measured state (MaxLabelBits <= MaxStateBits)", true, r.Labeled.MaxLabelBits() <= r.Eng.MaxStateBits())
	s.rounds += r.Eng.Round()
	s.steps += r.Eng.StepsTaken()
	s.recomputes += r.Machine.StaticRecomputes()
	s.copies += r.Machine.LabelCopies()
	s.maxStateBits = max(s.maxStateBits, r.Eng.MaxStateBits())
	s.maxLabelBits = max(s.maxLabelBits, r.Labeled.MaxLabelBits())
	s.constructionTime += r.Labeled.ConstructionTime
}

// workload is one pipeline; README.md records why each was chosen.
type workload struct {
	name string
	run  func(p *pipe, z sizes, seed int64, s *sample)
}

var workloads = []workload{
	{"mark-65k", runMark},
	{"corrupt-detect", runCorrupt},
	{"quiet-churn", runChurn},
	{"selfstab-build", runSelfstab},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ready runs the marker and the engine build, timed into the set-up. The
// traced run also splits the instance's heap by layer: collections sit
// outside every span and outside the set-up time.
func (p *pipe) ready(s *sample, n int, mark func() (*verify.Labeled, error), seed int64) (*verify.Runner, error) {
	var h0 uint64
	if s.traced {
		h0 = liveHeap()
	}
	var l *verify.Labeled
	var err error
	s.setup += timed(func() { l, err = mark() })
	if err != nil {
		return nil, err
	}
	var h1 uint64
	if s.traced {
		h1 = liveHeap()
	}
	var r *verify.Runner
	s.setup += timed(func() { r = p.newRunner(l, seed) })
	if s.traced {
		h2 := liveHeap()
		s.labelBytes = append(s.labelBytes, float64(int64(h1)-int64(h0))/float64(n))
		s.engineBytes = append(s.engineBytes, float64(int64(h2)-int64(h1))/float64(n))
	}
	return r, nil
}

// runMark: RandomConnected(n, 2n) → verify.Mark → NewRunner, a short silent
// window, then one static label fault to the first alarm.
func runMark(p *pipe, z sizes, seed int64, s *sample) {
	n := z.markN
	p.tr.newEpisode()
	base := liveHeap()
	var g *graph.Graph
	s.setup = timed(func() {
		p.tr.do("graph.RandomConnected", func() { g = graph.RandomConnected(n, 2*n, verify.SubSeed(seed, 0)) })
	})
	r, err := p.ready(s, n, func() (*verify.Labeled, error) { return p.mark(g, &s.marks) }, verify.SubSeed(seed, 2))
	if !p.check("mark", err) {
		return
	}
	s.heapPerNode = float64(int64(liveHeap())-int64(base)) / float64(n)
	p.expect("marked tree is the MST (graph.IsMST)", true, p.isMST(g, r.TreeEdges()))

	var silent bool
	runtime.GC()
	s.quiet = timed(func() { silent = p.runQuiet(r, z.markQuiet, s.roundMs, "") })
	s.quietRounds = z.markQuiet
	p.expect("correct labels stay silent", true, silent)

	rng := rand.New(rand.NewSource(verify.SubSeed(seed, 3)))
	v := rng.Intn(n)
	injected := false
	for i, start := 0, rng.Intn(len(labelFaults)); i < len(labelFaults) && !injected; i++ {
		kind := labelFaults[(start+i)%len(labelFaults)]
		p.tr.do("verify.Runner.InjectKind", func() { injected = r.InjectKind(v, kind, rng) })
	}
	if !p.check("inject label fault", errIf(!injected, "no label fault applies at node %d", v)) {
		return
	}
	var alarmed bool
	runtime.GC()
	s.detect = timed(func() { s.detectRounds, alarmed = p.runUntilAlarm(r, verify.DetectionBudget(n), s.roundMs, "") })
	p.expect("label fault alarms within DetectionBudget", true, alarmed)
	p.account(s, r)
}

// runCorrupt: per family, cellsPer corrupted-MST cells (k=1) each run
// generate → corrupt → oracle.CrossCheck → MarkTree → NewRunner →
// RunUntilAlarm within DetectionBudget, plus one control cell labelling the
// true MST, which must stay silent.
func runCorrupt(p *pipe, z sizes, seed int64, s *sample) {
	n := z.cellN
	budget := verify.DetectionBudget(n)
	var heaps []float64
	for fi, fam := range families {
		for ci := 0; ci <= z.cellsPer; ci++ {
			control := ci == z.cellsPer
			cs := verify.SubSeed(seed, int64(fi), int64(ci))
			p.tr.newEpisode()
			base := liveHeap()
			var g *graph.Graph
			var tree []int
			var isMST bool
			var err error
			s.setup += timed(func() {
				p.tr.do("graph.ByFamily", func() { g, err = graph.ByFamily(fam, n, verify.SubSeed(cs, 0)) })
				if err != nil {
					return
				}
				var gen *graph.CorruptedMSTGenerator
				p.tr.do("graph.NewCorruptedMSTGenerator", func() { gen, err = graph.NewCorruptedMSTGenerator(g) })
				if err != nil {
					return
				}
				if control {
					tree = gen.MST()
				} else {
					p.tr.do("graph.CorruptedMSTGenerator.Generate", func() { tree, err = gen.Generate(1, verify.SubSeed(cs, 1)) })
					if err != nil {
						return
					}
				}
				p.tr.do("oracle.CrossCheck", func() { isMST, err = oracle.CrossCheck(g, tree, graph.ByWeight(g)) })
			})
			var r *verify.Runner
			if err == nil {
				r, err = p.ready(s, n, func() (*verify.Labeled, error) { return p.markTree(g, tree, &s.marks) }, verify.SubSeed(cs, 2))
			}
			if !p.check(fmt.Sprintf("%s cell %d set-up", fam, ci), err) {
				continue
			}
			heaps = append(heaps, float64(int64(liveHeap())-int64(base))/float64(n))
			p.expect(fmt.Sprintf("%s cell %d: oracle verdict", fam, ci), control, isMST)
			if isMST {
				var silent bool
				s.quiet += timed(func() { silent = p.runQuiet(r, z.cellQuiet, s.roundMs, fam) })
				s.quietRounds += z.cellQuiet
				p.expect(fmt.Sprintf("%s control cell stays silent", fam), true, silent)
			} else {
				var rounds int
				var alarmed bool
				s.detect += timed(func() { rounds, alarmed = p.runUntilAlarm(r, budget, s.roundMs, fam) })
				s.detectRounds += rounds
				p.expect(fmt.Sprintf("%s cell %d alarms within DetectionBudget", fam, ci), true, alarmed)
			}
			p.account(s, r)
		}
	}
	s.heapPerNode = median(heaps)
}

// runChurn: RandomConnected(n, 2n) → Mark → NewRunner → settle, then a
// quiet window with an MST-preserving churn event every churnEvery rounds
// (silence required), then one weight-break that must alarm.
func runChurn(p *pipe, z sizes, seed int64, s *sample) {
	n := z.churnN
	p.tr.newEpisode()
	base := liveHeap()
	var g *graph.Graph
	s.setup = timed(func() {
		p.tr.do("graph.RandomConnected", func() { g = graph.RandomConnected(n, 2*n, verify.SubSeed(seed, 0)) })
	})
	r, err := p.ready(s, n, func() (*verify.Labeled, error) { return p.mark(g, &s.marks) }, verify.SubSeed(seed, 2))
	if !p.check("set-up", err) {
		return
	}
	s.setup += timed(func() { p.settle(r, settleRounds(r.Labeled)) })
	s.heapPerNode = float64(int64(liveHeap())-int64(base)) / float64(n)
	_, alarmed := r.Eng.AnyAlarm()
	p.expect("settled network is silent", false, alarmed)
	p.expect("marked tree is the MST (graph.IsMST)", true, p.isMST(g, r.TreeEdges()))

	rng := rand.New(rand.NewSource(verify.SubSeed(seed, 3)))
	runtime.GC()
	s.quiet = timed(func() {
		for done, event := 0, 0; done < z.churnQuiet; event++ {
			kind := preservingChurn[event%len(preservingChurn)]
			var ok bool
			s.churnApply += timed(func() {
				p.tr.do("verify.Runner.ApplyChurn", func() { _, ok = r.ApplyChurn(kind, rng) })
			})
			if !p.check("plan "+kind.String(), errIf(!ok, "no %s event exists", kind)) {
				return
			}
			k := min(z.churnEvery, z.churnQuiet-done)
			p.expect(kind.String()+" churn stays silent", true, p.runQuiet(r, k, s.roundMs, ""))
			done += k
		}
	})
	s.quietRounds = z.churnQuiet
	p.expect("tree is still the MST after preserving churn", true, p.isMST(g, r.TreeEdges()))

	var ok bool
	p.tr.do("verify.Runner.ApplyChurn", func() { _, ok = r.ApplyChurn(verify.ChurnWeightBreak, rng) })
	if !p.check("plan weight-break", errIf(!ok, "no weight-break event exists")) {
		return
	}
	p.expect("tree is no longer the MST after weight-break", false, p.isMST(g, r.TreeEdges()))
	runtime.GC()
	s.detect = timed(func() { s.detectRounds, alarmed = p.runUntilAlarm(r, verify.DetectionBudget(n), s.roundMs, "") })
	p.expect("weight-break alarms within DetectionBudget", true, alarmed)
	p.account(s, r)
}

// runSelfstab: RandomConnected(n, 2n) → selfstab.NewRunner → run until
// stable with an MST output, then a silent check-phase window, with the
// output cross-checked by the centralized oracles.
func runSelfstab(p *pipe, z sizes, seed int64, s *sample) {
	n := z.stabN
	p.tr.newEpisode()
	var g *graph.Graph
	var r *selfstab.Runner
	for i := 0; i < z.stabSetups; i++ {
		// Only the instance that is kept is traced; the other set-ups give
		// setup_s its median.
		p.tr.on = s.traced && i == z.stabSetups-1
		g, r = nil, nil
		base := liveHeap()
		d := timed(func() {
			p.tr.do("graph.RandomConnected", func() { g = graph.RandomConnected(n, 2*n, verify.SubSeed(seed, 0)) })
			p.tr.do("selfstab.NewRunner", func() { r = selfstab.NewRunner(g, n, verify.Sync, verify.SubSeed(seed, 2)) })
		})
		s.setups = append(s.setups, d)
		s.heapPerNode = float64(int64(liveHeap())-int64(base)) / float64(n)
	}
	s.setup = time.Duration(median(collect(s.setups, func(d *time.Duration) float64 { return float64(*d) })))

	// The loop of selfstab.Runner.RunUntilStable, timing each round.
	budget := r.StabilizationBudget()
	var stable bool
	s.stab = timed(func() {
		s.stabRounds = budget
		for i := 0; i < budget; i++ {
			start := time.Now()
			p.tr.do("selfstab.Runner.Step", r.Step)
			done := r.Stabilized() && r.OutputIsMST()
			s.roundMs[""] = append(s.roundMs[""], millis(time.Since(start)))
			if done {
				s.stabRounds, stable = i+1, true
				return
			}
		}
	})
	p.expect("stabilizes to the MST within StabilizationBudget", true, stable)

	silent := true
	s.quiet = timed(func() {
		for i := 0; i < z.stabQuiet && silent; i++ {
			start := time.Now()
			p.tr.do("selfstab.Runner.Step", r.Step)
			silent = r.Eng.AllDone()
			s.roundMs[""] = append(s.roundMs[""], millis(time.Since(start)))
		}
	})
	s.quietRounds = z.stabQuiet
	p.expect("stable transformer stays silent", true, silent && r.Stabilized())

	edges, spanning := r.OutputEdges()
	var isMST bool
	var err error
	if spanning {
		p.tr.do("oracle.CrossCheck", func() { isMST, err = oracle.CrossCheck(g, edges, graph.ByWeight(g)) })
	}
	if p.check("oracle cross-check", err) {
		p.expect("output is the MST (oracle.CrossCheck)", true, spanning && isMST)
	}
	s.rounds = r.Eng.Round()
	s.steps = r.Eng.StepsTaken()
	s.maxStateBits = r.Eng.MaxStateBits()
}

func errIf(cond bool, format string, args ...any) error {
	if cond {
		return fmt.Errorf(format, args...)
	}
	return nil
}
