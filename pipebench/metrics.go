package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"
)

// endToEndMetrics are what a user of the pipeline sees; --trace 0 prints
// them. Each exists, and is non-zero, on every workload.
var endToEndMetrics = []string{
	"setup_s",
	"round_ms",
	"quiet_round_ms",
	"heap_bytes_per_node",
	"max_state_bits",
}

// perLayerMetrics are the traced run's figures; --trace 1 prints them. A
// layer a workload does not exercise reads 0 there.
var perLayerMetrics = []string{
	"graph.generate_s",
	"graph.corrupt_s",
	"syncmst.simulate_s",
	"syncmst.rounds",
	"partition.compute_s",
	"labeling.mark_s",
	"hierarchy.mark_strings_s",
	"hierarchy.fragments",
	"train.mark_s",
	"verify.mark_s",
	"verify.label_bytes_per_node",
	"verify.engine_bytes_per_node",
	"verify.max_label_bits",
	"verify.new_runner_s",
	"verify.settle_s",
	"verify.churn_apply_s",
	"verify.static_recomputes_per_round",
	"verify.label_copies_per_round",
	"runtime.step_ms.p50",
	"runtime.step_ms.p90",
	"runtime.steps_per_round",
	"oracle.crosscheck_s",
	"selfstab.new_runner_s",
	"selfstab.step_ms.p50",
	"selfstab.step_ms.p90",
	"detect_s",
	"detect_rounds",
	"stabilize_s",
	"stabilize_rounds",
	"trace.overhead_ratio",
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// roundMs is the median wall time of a measured round, averaged over graph
// families with equal weight: how many rounds each family's cells take
// varies from seed to seed, and the families' round costs differ, so
// pooling them would let the seed pick the mix.
func roundMs(s *sample) float64 {
	var sum float64
	for _, ms := range s.roundMs {
		sum += median(ms)
	}
	return sum / float64(len(s.roundMs))
}

// endToEnd computes the end-to-end metrics over the untraced iterations,
// plus the workload-specific sums the human-readable lines show.
func endToEnd(ss []sample) map[string]metric {
	var setups []float64
	for i := range ss {
		if len(ss[i].setups) == 0 {
			setups = append(setups, seconds(ss[i].setup))
			continue
		}
		for _, d := range ss[i].setups {
			setups = append(setups, seconds(d))
		}
	}
	return map[string]metric{
		"setup_s":  {median(setups), "s"},
		"round_ms": {median(collect(ss, roundMs)), "ms"},
		"quiet_round_ms": {median(collect(ss, func(s *sample) float64 {
			return perRound(float64(s.quiet.Nanoseconds())/1e6, s.quietRounds)
		})), "ms"},
		"heap_bytes_per_node": {median(collect(ss, func(s *sample) float64 { return s.heapPerNode })), "B"},
		"max_state_bits":      {float64(ss[0].maxStateBits), "bits"},
		"detect_s":            {median(collect(ss, func(s *sample) float64 { return seconds(s.detect) })), "s"},
		"detect_rounds":       {float64(ss[0].detectRounds), "count"},
		"stabilize_s":         {median(collect(ss, func(s *sample) float64 { return seconds(s.stab) })), "s"},
		"stabilize_rounds":    {float64(ss[0].stabRounds), "count"},
	}
}

// perLayer computes the per-layer metrics: medians over the traced
// iterations, step percentiles over every traced step, the detection and
// stabilization sums from the untraced iterations, and the tracing
// overhead as traced over untraced iteration wall time.
func perLayer(traced, plain []sample) map[string]metric {
	spanSeconds := func(names ...string) float64 {
		return median(collect(traced, func(s *sample) float64 {
			var d time.Duration
			for _, n := range names {
				d += spanTotal(s.spans, n)
			}
			return d.Seconds()
		}))
	}
	med := func(f func(s *sample) float64) float64 { return median(collect(traced, f)) }
	steps := func(name string) []float64 {
		var out []float64
		for i := range traced {
			out = append(out, spanMillis(traced[i].spans, name)...)
		}
		return out
	}
	engineSteps, stabSteps := steps("runtime.Engine.Step"), steps("selfstab.Runner.Step")
	e2e := endToEnd(plain)
	wall := func(ss []sample) float64 {
		return median(collect(ss, func(s *sample) float64 { return seconds(s.wall) }))
	}
	return map[string]metric{
		"graph.generate_s":             {spanSeconds("graph.RandomConnected", "graph.ByFamily"), "s"},
		"graph.corrupt_s":              {spanSeconds("graph.NewCorruptedMSTGenerator", "graph.CorruptedMSTGenerator.Generate"), "s"},
		"syncmst.simulate_s":           {spanSeconds("syncmst.Simulate"), "s"},
		"syncmst.rounds":               {med(func(s *sample) float64 { return float64(s.marks.syncRounds) }), "count"},
		"partition.compute_s":          {spanSeconds("partition.Compute"), "s"},
		"labeling.mark_s":              {spanSeconds("labeling.MarkSP", "labeling.MarkSize"), "s"},
		"hierarchy.mark_strings_s":     {spanSeconds("hierarchy.MarkStrings"), "s"},
		"hierarchy.fragments":          {med(func(s *sample) float64 { return float64(s.marks.fragments) }), "count"},
		"train.mark_s":                 {spanSeconds("train.Mark"), "s"},
		"verify.mark_s":                {spanSeconds("verify.Mark", "verify.MarkTree"), "s"},
		"verify.label_bytes_per_node":  {med(func(s *sample) float64 { return median(s.labelBytes) }), "B"},
		"verify.engine_bytes_per_node": {med(func(s *sample) float64 { return median(s.engineBytes) }), "B"},
		"verify.max_label_bits":        {med(func(s *sample) float64 { return float64(s.maxLabelBits) }), "bits"},
		"verify.new_runner_s":          {spanSeconds("verify.NewRunner"), "s"},
		"verify.settle_s":              {spanSeconds("verify.settle"), "s"},
		"verify.churn_apply_s":         {med(func(s *sample) float64 { return seconds(s.churnApply) }), "s"},
		"verify.static_recomputes_per_round": {med(func(s *sample) float64 {
			return perRound(float64(s.recomputes), s.rounds)
		}), "count"},
		"verify.label_copies_per_round": {med(func(s *sample) float64 {
			return perRound(float64(s.copies), s.rounds)
		}), "count"},
		"runtime.step_ms.p50":     {quantile(engineSteps, 0.5), "ms"},
		"runtime.step_ms.p90":     {quantile(engineSteps, 0.9), "ms"},
		"runtime.steps_per_round": {med(func(s *sample) float64 { return perRound(float64(s.steps), s.rounds) }), "count"},
		"oracle.crosscheck_s":     {spanSeconds("oracle.CrossCheck"), "s"},
		"selfstab.new_runner_s":   {spanSeconds("selfstab.NewRunner"), "s"},
		"selfstab.step_ms.p50":    {quantile(stabSteps, 0.5), "ms"},
		"selfstab.step_ms.p90":    {quantile(stabSteps, 0.9), "ms"},
		"detect_s":                e2e["detect_s"],
		"detect_rounds":           e2e["detect_rounds"],
		"stabilize_s":             e2e["stabilize_s"],
		"stabilize_rounds":        e2e["stabilize_rounds"],
		"trace.overhead_ratio":    {wall(traced) / wall(plain), "ratio"},
	}
}

// checkRecord compares a run's exact counts with the record an earlier run
// of the same binary, workload and seed left under dir, and leaves one when
// there is none: the counts must repeat across processes too.
func checkRecord(dir, workload string, seed int64, exact map[string]int64) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate binary: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return fmt.Errorf("hash binary: %w", err)
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return fmt.Errorf("hash binary: %w", err)
	}
	path := filepath.Join(dir, hex.EncodeToString(h.Sum(nil))[:16], fmt.Sprintf("%s-seed%d.json", workload, seed))
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]int64
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		if !reflect.DeepEqual(prev, exact) {
			return fmt.Errorf("exact counts %v differ from an earlier run's %v (%s)", exact, prev, path)
		}
		return nil
	}
	b, err := json.Marshal(exact)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
