// Command pipebench is the end-to-end benchmark of the MST verification
// pipeline: generate → mark → build the engine → settle → fault, churn or
// corrupted tree → first alarm or stabilization, driven through the layers'
// public functions. Run it from the repository root:
//
//	bash pipebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each iteration runs the workload's whole pipeline from the seed; the run
// repeats iterations for --seconds and reports medians. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it alternates untraced and
// traced iterations, records a span around every call into a layer, and
// prints the per-layer metrics plus the tracing overhead. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: mark-65k, corrupt-detect, quiet-churn or selfstab-build")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "pipebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, prov, tr := run(w, fullSizes, *seed, time.Duration(*seconds)*time.Second, *trace == 1, false, os.Stdout)

	if err := checkRecord(filepath.Join(".bench_build", "pipebench", "exact"), w.name, *seed, tr.exact); err != nil {
		res.Correct = false
		fmt.Println("determinism:", err)
	}
	if *trace == 1 {
		path := filepath.Join(".bench_build", "pipebench", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := tr.tracer.write(path, prov); err != nil {
			fmt.Fprintln(os.Stderr, "pipebench: trace:", err)
			res.Correct = false
		} else {
			fmt.Printf("spans: %d written to %s\n", len(tr.tracer.spans), path)
		}
	}
	b, err := json.Marshal(prov)
	if err == nil {
		fmt.Printf("provenance: %s\n", b)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// timeGuard bounds a run: an alarm wait still going after it fails the run
// instead of overrunning the benchmark's time limit.
const timeGuard = 150 * time.Second

// runTrace is what a run leaves besides its result: the spans, and the
// exact counts every iteration agreed on.
type runTrace struct {
	tracer *tracer
	exact  map[string]int64
}

// run measures one workload: iterations until the time is up (at least
// one; at least one untraced and one traced with tracing on), then the
// metrics. Human-readable lines go to out; the result is returned.
func run(w workload, z sizes, seed int64, window time.Duration, trace, invert bool, out io.Writer) (result, provenance, runTrace) {
	prov := newProvenance(w.name, seed, int(window/time.Second), trace)
	start := time.Now()
	p := &pipe{tr: newTracer(false), invert: invert, deadline: start.Add(timeGuard)}
	var samples []sample
	for {
		s := sample{traced: trace && len(samples)%2 == 1, roundMs: roundTimes{}}
		p.tr.on = s.traced
		mark := len(p.tr.spans)
		t0 := time.Now()
		w.run(p, z, seed, &s)
		s.wall = time.Since(t0)
		s.spans = p.tr.spans[mark:]
		samples = append(samples, s)
		need := 1
		if trace {
			need = 2
		}
		if len(samples) >= need && time.Since(start)+s.wall > window {
			break
		}
	}
	p.tr.on = trace
	prov.Samples = len(samples)

	res := result{Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	for _, f := range p.failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	rt := runTrace{tracer: p.tr, exact: samples[0].exact()}
	deterministic := true
	for i := range samples[1:] {
		if e := samples[i+1].exact(); !reflect.DeepEqual(e, rt.exact) {
			deterministic = false
			fmt.Fprintf(out, "determinism: iteration %d (traced=%v) counted %v, iteration 0 counted %v\n", i+1, samples[i+1].traced, e, rt.exact)
		}
	}
	res.Correct = p.failed == 0 && deterministic && p.attempted > 0

	var plain, traced []sample
	for _, s := range samples {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	e2e := endToEnd(plain)
	for _, k := range sortedKeys(e2e) {
		fmt.Fprintf(out, "%-34s %14.6f %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
	fmt.Fprintf(out, "%-34s %14d count\n", "verdict_errors", p.failed)
	fmt.Fprintf(out, "%-34s %14d count\n", "attempted", p.attempted)
	fmt.Fprintf(out, "%-34s %14d (%d traced)\n", "samples", len(samples), len(traced))
	if !trace {
		for _, m := range endToEndMetrics {
			res.Metrics[m] = e2e[m]
		}
		return res, prov, rt
	}
	layers := perLayer(traced, plain)
	fmt.Fprintln(out, "per-layer:")
	for _, k := range sortedKeys(layers) {
		fmt.Fprintf(out, "  %-32s %14.6f %s\n", k, layers[k].Value, layers[k].Unit)
	}
	fmt.Fprintln(out, "span self times (all traced iterations):")
	lt := layerTimes(p.tr.spans)
	names := make([]string, 0, len(lt))
	for k := range lt {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return lt[names[i]].self > lt[names[j]].self })
	for _, k := range names {
		fmt.Fprintf(out, "  %-40s calls %8d  total %12.6f s  self %12.6f s\n", k, lt[k].calls, lt[k].total.Seconds(), lt[k].self.Seconds())
	}
	for _, m := range perLayerMetrics {
		res.Metrics[m] = layers[m]
	}
	return res, prov, rt
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
