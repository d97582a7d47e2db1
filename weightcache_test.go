package spef_test

import (
	"context"
	"testing"

	spef "repro"
)

// reuseGrid builds a small two-load grid over the Fig. 1 network for
// the weight-reuse tests.
func reuseGrid(t *testing.T, routers ...spef.Router) []spef.Scenario {
	t.Helper()
	n, d, err := spef.Fig1Example()
	if err != nil {
		t.Fatal(err)
	}
	grid := spef.Grid{
		Topologies: []spef.Topology{{Name: "fig1", Network: n, Demands: d}},
		Loads:      []float64{0.2, 0.3, 0.4},
		Routers:    routers,
	}
	cells, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func metricsBitIdentical(t *testing.T, label string, a, b []spef.ScenarioResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Scenario != b[i].Scenario || a[i].Router != b[i].Router {
			t.Fatalf("%s: row %d identity mismatch: %q/%q vs %q/%q",
				label, i, a[i].Scenario, a[i].Router, b[i].Scenario, b[i].Router)
		}
		if (a[i].Err == nil) != (b[i].Err == nil) {
			t.Fatalf("%s: row %d error mismatch: %v vs %v", label, i, a[i].Err, b[i].Err)
		}
		for _, name := range a[i].MetricNames {
			va, _ := a[i].Metric(name)
			vb, ok := b[i].Metric(name)
			if !ok {
				t.Fatalf("%s: row %d missing metric %s", label, i, name)
			}
			// Compare bit patterns so NaN == NaN.
			if va != vb && !(va != va && vb != vb) {
				t.Fatalf("%s: row %d metric %s: %v != %v (not bit-identical)", label, i, name, va, vb)
			}
		}
	}
}

// TestReuseWeightsMatchesManualFixedRouter proves the cache's semantics
// exactly: every cell of a (topology, router) group reports what a
// fixed-weight router carrying the first-load optimum reports on that
// cell's demands.
func TestReuseWeightsMatchesManualFixedRouter(t *testing.T) {
	iters := spef.WithMaxIterations(2000)
	cells := reuseGrid(t, spef.SPEF(iters))
	got, err := spef.RunScenarios(context.Background(), cells, spef.RunOptions{ReuseWeights: true})
	if err != nil {
		t.Fatal(err)
	}

	// Reproduce the reference by hand: optimize at the first load, then
	// re-simulate those weights at every load through SPEFWithWeights.
	n, d, err := spef.Fig1Example()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := d.ScaledToLoad(n, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := spef.Optimize(context.Background(), n, ref, iters)
	if err != nil {
		t.Fatal(err)
	}
	fixed := spef.Named("SPEF", spef.SPEFWithWeights(p.FirstWeights(), p.SecondWeights()))
	grid := spef.Grid{
		Topologies: []spef.Topology{{Name: "fig1", Network: n, Demands: d}},
		Loads:      []float64{0.2, 0.3, 0.4},
		Routers:    []spef.Router{fixed},
	}
	manualCells, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	want, err := spef.RunScenarios(context.Background(), manualCells, spef.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	metricsBitIdentical(t, "reuse vs manual fixed", got, want)
}

// TestReuseWeightsDeterministic proves reuse results are bit-identical
// across worker counts and across the batch and streaming paths — the
// reference cell is picked by index, not by completion order.
func TestReuseWeightsDeterministic(t *testing.T) {
	cells := reuseGrid(t, spef.OSPF(nil), spef.SPEF(spef.WithMaxIterations(2000)))
	base, err := spef.RunScenarios(context.Background(), cells, spef.RunOptions{ReuseWeights: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := spef.RunScenarios(context.Background(), cells, spef.RunOptions{ReuseWeights: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	metricsBitIdentical(t, "workers 1 vs 8", base, many)

	streamed := make([]spef.ScenarioResult, len(cells))
	for r := range spef.StreamScenarios(context.Background(), cells, spef.RunOptions{ReuseWeights: true, Workers: 4}) {
		streamed[r.Index] = r
	}
	metricsBitIdentical(t, "batch vs stream", base, streamed)
}

// TestReuseWeightsLeavesNonOptimizersUnchanged proves routers with no
// extractable optimization (InvCap OSPF) report exactly the same
// results with the cache on and off.
func TestReuseWeightsLeavesNonOptimizersUnchanged(t *testing.T) {
	cells := reuseGrid(t, spef.OSPF(nil))
	off, err := spef.RunScenarios(context.Background(), cells, spef.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := spef.RunScenarios(context.Background(), cells, spef.RunOptions{ReuseWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	metricsBitIdentical(t, "reuse on vs off", off, on)
}

// TestReuseWeightsPEFT proves the optimizing PEFT router participates:
// the optimized first weights extracted at the first load drive every
// load's downward-DAG forwarding.
func TestReuseWeightsPEFT(t *testing.T) {
	cells := reuseGrid(t, spef.PEFT(nil, spef.WithMaxIterations(1500)))
	got, err := spef.RunScenarios(context.Background(), cells, spef.RunOptions{ReuseWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("cell %d (%s): %v", i, r.Scenario, r.Err)
		}
		if r.Router != "PEFT" {
			t.Fatalf("cell %d router = %q, want PEFT", i, r.Router)
		}
	}
	// Re-running must give bitwise-equal rows (one deterministic
	// reference optimization, not per-run races).
	again, err := spef.RunScenarios(context.Background(), cells, spef.RunOptions{ReuseWeights: true, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	metricsBitIdentical(t, "PEFT reuse rerun", got, again)
}

// TestReuseWeightsKeepsSameNamedRoutersApart: routers that differ only
// in parameters their display name leaves out (the OSPF-LS and SPEF
// budgets) form separate reuse groups, so at the reference load every
// reuse cell equals, bit for bit, the same cell run without reuse.
func TestReuseWeightsKeepsSameNamedRoutersApart(t *testing.T) {
	suite := func(reuse bool) []spef.ScenarioResult {
		res, err := (&spef.Suite{
			Topologies:   []string{"abilene"},
			Demands:      "gravity",
			Loads:        []float64{0.1, 0.2},
			Routers:      []string{"ospf-ls:iters=5", "ospf-ls:iters=400", "spef:iters=2", "spef:iters=60"},
			Metrics:      []string{"mlu", "utility", "fortz_norm"},
			ReuseWeights: reuse,
		}).Collect(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on, off := suite(true), suite(false)
	var refOn, refOff []spef.ScenarioResult
	for i := range on {
		if on[i].Load == 0.1 {
			refOn, refOff = append(refOn, on[i]), append(refOff, off[i])
		}
	}
	if len(refOn) != 4 {
		t.Fatalf("%d cells at the reference load, want 4", len(refOn))
	}
	metricsBitIdentical(t, "reference load, reuse on vs off", refOn, refOff)
}
