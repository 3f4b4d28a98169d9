package main

import (
	"io"
	"reflect"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/verify"
)

// tinySizes run every workload's code path in seconds.
var tinySizes = sizes{
	markN: 256, markQuiet: 4,
	cellN: 128, cellsPer: 1, cellQuiet: 8,
	churnN: 256, churnQuiet: 8, churnEvery: 4,
	stabN: 24, stabQuiet: 8, stabSetups: 2,
}

// TestWorkloadsTiny runs each workload untraced and traced at tiny n: every
// verdict holds, the exact counts agree between the traced and untraced
// iterations, and every metric is reported.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, _, _ := run(w, tinySizes, 7, 0, false, false, io.Discard)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range endToEndMetrics {
				if v, ok := res.Metrics[m]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want > 0", m, v)
				}
			}
			res, _, tr := run(w, tinySizes, 7, 0, true, false, io.Discard)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range perLayerMetrics {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("per-layer metric %s missing", m)
				}
			}
			if len(tr.tracer.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			for i, s := range tr.tracer.spans {
				if s.End < s.Start || (s.Parent >= 0 && int(s.Parent) >= i) {
					t.Fatalf("span %d malformed: %+v", i, s)
				}
			}
		})
	}
}

// TestWrongExpectationFails proves a verdict that disagrees with its
// expectation is counted: with every expectation inverted, each workload
// must report failures and an incorrect result.
func TestWrongExpectationFails(t *testing.T) {
	for _, w := range workloads {
		res, _, _ := run(w, tinySizes, 7, 0, false, true, io.Discard)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: inverted expectations gave correct=%v failed=%d", w.name, res.Correct, res.Failed)
		}
	}
}

// TestStagedMarkerMatches checks that the traced run's stage-by-stage
// marker builds exactly what verify.Mark and verify.MarkTree build.
func TestStagedMarkerMatches(t *testing.T) {
	p := &pipe{tr: newTracer(true)}
	g := graph.RandomConnected(200, 400, 3)
	want, err := verify.Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	var st markStats
	got, err := p.mark(g, &st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("staged marker differs from verify.Mark")
	}
	gen, err := graph.NewCorruptedMSTGenerator(g)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := gen.Generate(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err = verify.MarkTree(g, tree, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = p.markTree(g, tree, &st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("staged marker differs from verify.MarkTree")
	}
	if st.syncRounds == 0 || st.fragments == 0 {
		t.Errorf("marker stats not recorded: %+v", st)
	}
}
