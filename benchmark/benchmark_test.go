package main

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"
)

// specMetrics returns the (name, unit) pairs BENCHMARK.json lists.
func specMetrics(t *testing.T) (endToEndSpec, perLayerSpec []metricDef, spec *benchmarkSpec) {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEndSpec = append(endToEndSpec, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		perLayerSpec = append(perLayerSpec, metricDef{m.Name, m.Unit})
	}
	return endToEndSpec, perLayerSpec, spec
}

func sortedDefs(defs []metricDef) []metricDef {
	out := slices.Clone(defs)
	slices.SortFunc(out, func(a, b metricDef) int { return strings.Compare(a.name, b.name) })
	return out
}

func reported(res result) []metricDef {
	var defs []metricDef
	for name, m := range res.Metrics {
		defs = append(defs, metricDef{name, m.Unit})
	}
	return sortedDefs(defs)
}

// TestWorkloadsQuick runs every workload at its quick size, untraced and
// traced, on two seeds: no operation may fail, and the report must carry
// exactly the metrics BENCHMARK.json lists. Seed 1 is also checked
// against the committed expected outputs.
func TestWorkloadsQuick(t *testing.T) {
	e2e, layer, _ := specMetrics(t)
	exp, err := parseExpected(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				cfg := config{seed: seed, quick: true, trace: traced}
				r, err := runWorkload(context.Background(), w, cfg, exp)
				if err != nil {
					t.Fatalf("%s seed %d traced=%v: %v", w, seed, traced, err)
				}
				res := r.result()
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d traced=%v: correct=%v attempted=%d failed=%d: %v",
						w, seed, traced, res.Correct, res.Attempted, res.Failed, r.errs)
				}
				want := sortedDefs(e2e)
				if traced {
					want = sortedDefs(layer)
				}
				if got := reported(res); !slices.Equal(got, want) {
					t.Errorf("%s traced=%v reports %v, BENCHMARK.json lists %v", w, traced, got, want)
				}
				if !traced {
					for _, d := range endToEnd {
						if v := res.Metrics[d.name].Value; !(v > 0) {
							t.Errorf("%s seed %d: end-to-end metric %s = %v, want > 0", w, seed, d.name, v)
						}
					}
				}
			}
		}
	}
}

// TestSpecMatchesCode pins BENCHMARK.json to the metric lists the code
// reports and to the contract's limits.
func TestSpecMatchesCode(t *testing.T) {
	e2e, layer, spec := specMetrics(t)
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code reports %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer %v, code reports %v", layer, perLayer())
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames())
	}
	setupBound := 0.0
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end_to_end %s: bound %v better %q", m.Name, m.Bound, m.Better)
			continue
		}
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound != nil && *m.Bound > setupBound {
			t.Errorf("%s's bound %v exceeds setup_s's %v", m.Name, *m.Bound, setupBound)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},       // nested child
		{Name: "a.1", Start: 12, End: 20, Parent: 1},     // grandchild
		{Name: "b", Start: 25, End: 50, Parent: 0},       // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0},      // sticks out of root
		{Name: "a.2", Start: 15, End: 28, Parent: 1},     // overlaps a.1
		{Name: "lone", Start: 200, End: 260, Parent: -1}, // no children
	}
	// root: children cover [10,50] and [90,100] -> 50 of 100.
	// a: children cover [12,28] -> 16 of 20.
	want := []int64{50, 4, 8, 25, 30, 13, 60}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTraceSummary(t *testing.T) {
	rec := newRecorder()
	rec.spans = []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Op: 0},
		{Name: "x", Start: 10, End: 40, Parent: 0, Op: 0},
		{Name: "op", Start: 100, End: 300, Parent: -1, Op: 1},
		{Name: "x", Start: 100, End: 300, Parent: 2, Op: 1},
		{Name: "probe", Start: 300, End: 310, Parent: -1, Op: -1},
	}
	ts := rec.summary()
	if ts.ops != 2 || ts.opTime != 300 || ts.opSelf["op"] != 70 {
		t.Errorf("ops %d opTime %d root self time %d, want 2 300 70", ts.ops, ts.opTime, ts.opSelf["op"])
	}
	if got := ts.share("x"); math.Abs(got-230.0/300) > 1e-12 {
		t.Errorf("share(x) = %v, want %v", got, 230.0/300)
	}
	if _, ok := ts.opSelf["probe"]; ok || ts.self["probe"] != 10 {
		t.Errorf("reference span: opSelf has it %v, self %d; want absent, 10", ok, ts.self["probe"])
	}
	if ts.worstGap != 0 {
		t.Errorf("nested spans: worstGap %v, want 0", ts.worstGap)
	}
	// Overlapping children double-count: the check must see it.
	rec.spans = append(rec.spans[:2:2], span{Name: "y", Start: 20, End: 60, Parent: 0, Op: 0})
	rec.spans[1].End = 50
	if ts := rec.summary(); ts.worstGap < 0.05 {
		t.Errorf("overlapping children: worstGap %v, want >= 0.05", ts.worstGap)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([5, 1, 3], n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// runsOf builds one result per pair with the metric set to each value.
func runsOf(metric string, vals ...float64) map[string]result {
	runs := map[string]result{}
	for i, v := range vals {
		runs["w."+string(rune('a'+i))+".json"] = result{Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{metric: {Value: v}}}
	}
	return runs
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.1
	lower := []specMetric{{Name: "op_ms", Better: "lower", Bound: &bound}}
	higher := []specMetric{{Name: "op_ms", Better: "higher", Bound: &bound}}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name    string
		metrics []specMetric
		base    []float64
		head    []float64
		want    string
	}{
		{"gain: 10 of 10 pairs, medians apart", lower, base,
			[]float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, verdictGain},
		{"8 of 10 wins is no gain", lower, base,
			[]float64{90, 91, 89, 90, 92, 88, 90, 91, 110, 110}, verdictNoWorse},
		{"too few pairs for a gain", lower, base[:5],
			[]float64{90, 91, 89, 90, 92}, verdictNoWorse},
		{"regression beyond the bound", lower, base,
			[]float64{115, 116, 114, 115, 117, 113, 115, 116, 114, 115}, verdictRegression},
		{"worse within the bound", lower, base,
			[]float64{105, 106, 104, 105, 107, 103, 105, 106, 104, 105}, verdictNoWorse},
		{"higher is better: a drop regresses", higher, base,
			[]float64{85, 86, 84, 85, 87, 83, 85, 86, 84, 85}, verdictRegression},
		{"parent spread beyond the bound", lower,
			[]float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100},
			[]float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, verdictUnresolved},
		{"wide spread, every change run better", lower,
			[]float64{150, 400, 155, 395, 160, 390, 165, 385, 170, 380},
			[]float64{140, 141, 142, 143, 144, 145, 146, 147, 148, 149}, verdictBetter},
	} {
		rows := compareRuns(c.metrics, runsOf("op_ms", c.base...), runsOf("op_ms", c.head...))
		if len(rows) != 1 || rows[0].Verdict != c.want {
			t.Errorf("%s: rows %+v, want verdict %q", c.name, rows, c.want)
		}
	}
}
