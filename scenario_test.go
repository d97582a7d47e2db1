package spef

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// gridNetwork builds a 2-edge-connected 5-node duplex network (ring
// plus two chords) with a sparse demand set, so every single duplex
// failure leaves the demands routable.
func gridNetwork(t *testing.T) (*Network, *Demands) {
	t.Helper()
	n := NewNetwork()
	for i := 0; i < 5; i++ {
		n.AddNode(fmt.Sprintf("v%d", i))
	}
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}, {1, 3}}
	for _, p := range pairs {
		if _, _, err := n.AddDuplex(p[0], p[1], 10); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDemands(n)
	for _, dem := range []struct {
		s, t int
		v    float64
	}{{0, 3, 2}, {2, 4, 1.5}, {1, 0, 1}} {
		if err := d.Add(dem.s, dem.t, dem.v); err != nil {
			t.Fatal(err)
		}
	}
	return n, d
}

func gridRouters() []Router {
	return []Router{
		OSPF(nil),
		SPEF(WithMaxIterations(400)),
		PEFT(nil, WithMaxIterations(400)),
		Optimal(),
	}
}

// TestScenarioGridDeterministicAcrossWorkerCounts is the acceptance
// test of the Scenario engine: a >= 24-cell grid including generated
// single-link-failure variants, executed at several worker counts, must
// produce identical results in identical order.
func TestScenarioGridDeterministicAcrossWorkerCounts(t *testing.T) {
	n, d := gridNetwork(t)
	grid := Grid{
		Topologies: []Topology{{Name: "ring5", Network: n, Demands: d}},
		Routers:    gridRouters(),
		Failures:   "single",
	}
	cells, err := grid.Scenarios()
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	// 7 duplex pairs, all survivable -> (1 intact + 7 failures) x 4
	// routers = 32 cells.
	if len(cells) < 24 {
		t.Fatalf("grid expanded to %d cells, want >= 24", len(cells))
	}
	var failureCells int
	for _, c := range cells {
		if c.FailedLink != "" {
			failureCells++
		}
	}
	if failureCells < len(gridRouters()) {
		t.Fatalf("grid has %d failure cells, want at least one per router", failureCells)
	}

	var baseline []ScenarioResult
	for _, workers := range []int{1, 3, 8} {
		results, err := RunScenarios(t.Context(), cells, RunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("RunScenarios(workers=%d): %v", workers, err)
		}
		if len(results) != len(cells) {
			t.Fatalf("workers=%d: %d results for %d cells", workers, len(results), len(cells))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d: cell %s failed: %v", workers, r.Scenario, r.Err)
			}
			if r.Scenario != cells[i].Name {
				t.Fatalf("workers=%d: result %d is %s, want %s", workers, i, r.Scenario, cells[i].Name)
			}
		}
		if baseline == nil {
			baseline = results
			continue
		}
		for i, r := range results {
			b := baseline[i]
			// Bitwise equality: each cell computes independently and
			// deterministically, so the worker count must not change
			// a single bit of the numeric results.
			for _, name := range b.MetricNames {
				if r.Metrics[name] != b.Metrics[name] {
					t.Errorf("workers=%d: cell %s metric %s = %v, baseline %v",
						workers, r.Scenario, name, r.Metrics[name], b.Metrics[name])
				}
			}
		}
	}

	// Spot-check the comparison makes sense on the intact topology:
	// SPEF at least matches OSPF everywhere it both succeeded.
	byName := make(map[string]ScenarioResult, len(baseline))
	for _, r := range baseline {
		byName[r.Scenario] = r
	}
	ospf, okO := byName["ring5/InvCap-OSPF"]
	spefRes, okS := byName["ring5/SPEF"]
	if !okO || !okS {
		t.Fatalf("intact-topology cells missing from results")
	}
	if !math.IsInf(ospf.Utility(), -1) && spefRes.Utility() < ospf.Utility()-0.05*math.Abs(ospf.Utility())-0.05 {
		t.Errorf("SPEF utility %v below OSPF %v on intact topology", spefRes.Utility(), ospf.Utility())
	}
}

func TestGridLoadAndBetaAxes(t *testing.T) {
	n, d := gridNetwork(t)
	grid := Grid{
		Topologies: []Topology{{Name: "ring5", Network: n, Demands: d}},
		Loads:      []float64{0.05, 0.1},
		Betas:      []float64{0, 1, 2},
		Routers:    []Router{OSPF(nil), SPEF(WithMaxIterations(300))},
	}
	cells, err := grid.Scenarios()
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	// OSPF is not beta-configurable (1 variant), SPEF expands into 3:
	// 2 loads x (1 + 3) routers = 8 cells.
	if len(cells) != 8 {
		t.Fatalf("grid expanded to %d cells, want 8", len(cells))
	}
	var betaNamed int
	for _, c := range cells {
		if strings.Contains(c.Router.Name(), "beta=") {
			betaNamed++
		}
		if c.Load == 0 {
			t.Errorf("cell %s has no load recorded", c.Name)
		}
	}
	// SPEF(beta=0) and SPEF(beta=2) are suffixed, SPEF(beta=1) is the
	// unsuffixed default: 2 suffixed variants x 2 loads.
	if betaNamed != 4 {
		t.Errorf("%d beta-suffixed cells, want 4", betaNamed)
	}
	// Demands must actually be rescaled per load.
	for _, c := range cells {
		got := c.Demands.NetworkLoad(c.Network)
		if math.Abs(got-c.Load) > 1e-9 {
			t.Errorf("cell %s: network load %v, want %v", c.Name, got, c.Load)
		}
	}
}

// TestGridFailureVariantsRemapExplicitWeights checks that routers
// configured with intact-topology weight vectors keep working on
// failure variants: each variant's network projects the weights onto
// its surviving links (stale-weight semantics) instead of letting the
// length mismatch error out every failure cell.
func TestGridFailureVariantsRemapExplicitWeights(t *testing.T) {
	n, d := gridNetwork(t)
	w := make([]float64, n.NumLinks())
	for i := range w {
		w[i] = 1 + float64(i%3)
	}
	grid := Grid{
		Topologies: []Topology{{Name: "ring5", Network: n, Demands: d}},
		Routers: []Router{
			OSPF(w),
			Named("peft-w", PEFT(w)),
		},
		Failures: "single",
	}
	cells, err := grid.Scenarios()
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	results, err := RunScenarios(t.Context(), cells, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("cell %s failed: %v", r.Scenario, r.Err)
		}
	}
}

// TestGridFailureVariantsRemapQCoefficients checks per-link q
// coefficients configured through WithQ are projected onto failure
// variants for every optimizing router.
func TestGridFailureVariantsRemapQCoefficients(t *testing.T) {
	n, d := gridNetwork(t)
	q := make([]float64, n.NumLinks())
	for i := range q {
		q[i] = 1 + 0.1*float64(i%4)
	}
	grid := Grid{
		Topologies: []Topology{{Name: "ring5", Network: n, Demands: d}},
		Routers: []Router{
			SPEF(WithQ(q), WithMaxIterations(300)),
			Optimal(WithQ(q)),
			PEFT(nil, WithQ(q), WithMaxIterations(300)),
		},
		Failures: "single",
	}
	cells, err := grid.Scenarios()
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	results, err := RunScenarios(t.Context(), cells, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("cell %s failed: %v", r.Scenario, r.Err)
		}
	}
}

// TestGridFailureVariantsRejectOverlongVectors checks that a failure
// cell projects only vectors of the intact link count: a vector one
// entry longer fails every cell, intact and failure alike, with
// ErrBadInput rather than running truncated on the failure cells.
func TestGridFailureVariantsRejectOverlongVectors(t *testing.T) {
	n, d := gridNetwork(t)
	long := make([]float64, n.NumLinks()+1)
	for i := range long {
		long[i] = 1 + float64(i%3)
	}
	grid := Grid{
		Topologies: []Topology{{Name: "ring5", Network: n, Demands: d}},
		Routers: []Router{
			OSPF(long),
			Named("peft-w", PEFT(long)),
			SPEFWithWeights(long, long),
			SPEF(WithQ(long), WithMaxIterations(100)),
			PEFT(nil, WithQ(long), WithMaxIterations(100)),
			Optimal(WithQ(long)),
		},
		Failures: "single",
	}
	cells, err := grid.Scenarios()
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	results, err := RunScenarios(t.Context(), cells, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	for _, r := range results {
		if !errors.Is(r.Err, ErrBadInput) {
			t.Errorf("cell %s: err = %v, want ErrBadInput", r.Scenario, r.Err)
		}
	}
}

func TestGridRejectsEmptyAxes(t *testing.T) {
	n, d := gridNetwork(t)
	if _, err := (Grid{Routers: gridRouters()}).Scenarios(); !errors.Is(err, ErrBadInput) {
		t.Errorf("no topologies: err = %v, want ErrBadInput", err)
	}
	if _, err := (Grid{Topologies: []Topology{{Name: "x", Network: n, Demands: d}}}).Scenarios(); !errors.Is(err, ErrBadInput) {
		t.Errorf("no routers: err = %v, want ErrBadInput", err)
	}
}

// TestRunScenariosRecordsPerCellErrors feeds one unroutable cell and
// checks the run continues past it.
func TestRunScenariosRecordsPerCellErrors(t *testing.T) {
	n, d := gridNetwork(t)
	// A demand to an isolated node makes OSPF's DAG build fail.
	bad := NewNetwork()
	a := bad.AddNode("a")
	b := bad.AddNode("b")
	bad.AddNode("isolated")
	if _, _, err := bad.AddDuplex(a, b, 1); err != nil {
		t.Fatal(err)
	}
	badD := NewDemands(bad)
	if err := badD.Add(a, 2, 1); err != nil {
		t.Fatal(err)
	}
	cells := []Scenario{
		{Name: "bad", Topology: "bad", Network: bad, Demands: badD, Router: OSPF(nil)},
		{Name: "good", Topology: "ring5", Network: n, Demands: d, Router: OSPF(nil)},
	}
	results, err := RunScenarios(t.Context(), cells, RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	if results[0].Err == nil {
		t.Error("unroutable cell reported no error")
	}
	if results[1].Err != nil {
		t.Errorf("good cell failed: %v", results[1].Err)
	}
}

func TestRunScenariosCancellation(t *testing.T) {
	n, d := gridNetwork(t)
	var cells []Scenario
	for i := 0; i < 6; i++ {
		cells = append(cells, Scenario{
			Name: fmt.Sprintf("cell%d", i), Topology: "ring5",
			Network: n, Demands: d, Router: SPEF(WithMaxIterations(200)),
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunScenarios(ctx, cells, RunOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != len(cells) {
		t.Fatalf("%d results for %d cells", len(results), len(cells))
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("cell %s: err = %v, want context.Canceled", r.Scenario, r.Err)
		}
	}
}

func TestRunScenariosProgress(t *testing.T) {
	n, d := gridNetwork(t)
	cells := []Scenario{
		{Name: "a", Topology: "ring5", Network: n, Demands: d, Router: OSPF(nil)},
		{Name: "b", Topology: "ring5", Network: n, Demands: d, Router: OSPF(nil)},
		{Name: "c", Topology: "ring5", Network: n, Demands: d, Router: OSPF(nil)},
	}
	var seen []int
	_, err := RunScenarios(t.Context(), cells, RunOptions{
		Workers:  2,
		Progress: func(done, total int) { seen = append(seen, done*100+total) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{103, 203, 303}
	if len(seen) != len(want) {
		t.Fatalf("progress called %d times, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("progress[%d] = %d, want %d", i, seen[i], want[i])
		}
	}
}
