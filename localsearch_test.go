package spef

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

// lsTestInstance builds a small random network and demand set sized so
// local-search tests stay fast.
func lsTestInstance(t *testing.T) (*Network, *Demands) {
	t.Helper()
	n, err := RandomNetwork(1, 8, 24)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FortzThorupDemands(3, n)
	if err != nil {
		t.Fatal(err)
	}
	return n, d
}

// fortzOf evaluates the fortz metric for one router's routes.
func fortzOf(t *testing.T, r Router, n *Network, d *Demands) float64 {
	t.Helper()
	routes, err := r.Routes(context.Background(), n, d)
	if err != nil {
		t.Fatalf("%s: %v", r.Name(), err)
	}
	report, err := routes.Evaluate(d)
	if err != nil {
		t.Fatalf("%s evaluate: %v", r.Name(), err)
	}
	v, err := FortzCostMetric().Compute(routes, d, report)
	if err != nil {
		t.Fatalf("%s fortz: %v", r.Name(), err)
	}
	return v
}

// TestOSPFLocalSearchBeatsInvCap: the search starts from InvCap
// weights and never accepts a worsening move, so the optimized router
// can never score a higher Fortz cost than the InvCap baseline.
func TestOSPFLocalSearchBeatsInvCap(t *testing.T) {
	n, d := lsTestInstance(t)
	base := fortzOf(t, OSPF(nil), n, d)
	opt := fortzOf(t, OSPFLocalSearch(LocalSearchOptions{MaxEvals: 300, Seed: 1}), n, d)
	if opt > base {
		t.Fatalf("ospf-ls fortz cost %v exceeds InvCap baseline %v", opt, base)
	}
}

// TestOSPFLocalSearchRouterNamesAndReuse covers the router's display
// names and its weight-reuse contract: the extracted fixed router must
// reproduce the optimized routes' evaluation exactly.
func TestOSPFLocalSearchRouterNamesAndReuse(t *testing.T) {
	n, d := lsTestInstance(t)
	r := OSPFLocalSearch(LocalSearchOptions{MaxEvals: 120, Seed: 2})
	if r.Name() != "OSPF-LS" {
		t.Fatalf("Name() = %q, want OSPF-LS", r.Name())
	}
	if rr := OSPFLocalSearch(LocalSearchOptions{Robust: true}); rr.Name() != "OSPF-LS-robust" {
		t.Fatalf("robust Name() = %q, want OSPF-LS-robust", rr.Name())
	}
	wr, ok := r.(weightReuser)
	if !ok || !wr.reusable() {
		t.Fatal("OSPFLocalSearch must implement the weight-reuse contract")
	}
	routes, err := r.Routes(context.Background(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	if routes.ecmpWeights == nil {
		t.Fatal("optimized routes must record their weights for the reuse cache")
	}
	fixed, ok := fixedRouter(routes)
	if !ok {
		t.Fatal("fixedRouter failed on optimized routes")
	}
	if fixed.Name() != r.Name() {
		t.Fatalf("reused router renamed to %q", fixed.Name())
	}
	fixedRoutes, err := fixed.Routes(context.Background(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	a, err := routes.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fixedRoutes.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	if a.MLU != b.MLU {
		t.Fatalf("reused router MLU %v, optimized %v", b.MLU, a.MLU)
	}
	for e := range a.LinkFlow {
		if a.LinkFlow[e] != b.LinkFlow[e] {
			t.Fatalf("link %d: reused flow %v, optimized %v", e, b.LinkFlow[e], a.LinkFlow[e])
		}
	}
}

// TestOSPFLocalSearchRobustRouter runs the failure-aware variant end to
// end on a topology with routable failure variants.
func TestOSPFLocalSearchRobustRouter(t *testing.T) {
	n, d := lsTestInstance(t)
	r := OSPFLocalSearch(LocalSearchOptions{MaxEvals: 100, Seed: 4, Robust: true})
	routes, err := r.Routes(context.Background(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	if routes.Router() != "OSPF-LS-robust" {
		t.Fatalf("routes carry router %q", routes.Router())
	}
	if _, err := routes.Evaluate(d); err != nil {
		t.Fatal(err)
	}
}

// TestOSPFLocalSearchCanceled: cancellation must surface as a wrapped
// context error, per the Router contract.
func TestOSPFLocalSearchCanceled(t *testing.T) {
	n, d := lsTestInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OSPFLocalSearch(LocalSearchOptions{}).Routes(ctx, n, d); !errors.Is(err, context.Canceled) {
		t.Fatalf("Routes on canceled ctx: %v, want wrapped context.Canceled", err)
	}
}

// TestLocalSearchRoutersReportBadOptions: a search option the search
// rejects is ErrBadInput from every router that searches.
func TestLocalSearchRoutersReportBadOptions(t *testing.T) {
	n := Abilene()
	d, err := ResolveDemands("gravity", n)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Router{
		OSPFLocalSearch(LocalSearchOptions{WeightMax: -3}),
		SegmentRouting(ExplicitOptions{WeightMax: -3}),
		MPLSKSP(ExplicitOptions{WeightMax: -3}),
	} {
		if _, err := r.Routes(context.Background(), n, d); !errors.Is(err, ErrBadInput) {
			t.Errorf("%s with WeightMax -3: err %v, want ErrBadInput", r.Name(), err)
		}
	}
}

// TestOSPFLocalSearchIgnoresFailurePenaltyWithoutRobust: FailurePenalty
// is documented as ignored without Robust, so even a value the robust
// search rejects leaves a plain search as it is.
func TestOSPFLocalSearchIgnoresFailurePenaltyWithoutRobust(t *testing.T) {
	n, d := lsTestInstance(t)
	weights := func(rho float64) []float64 {
		routes, err := OSPFLocalSearch(LocalSearchOptions{MaxEvals: 100, Seed: 1, FailurePenalty: rho}).Routes(context.Background(), n, d)
		if err != nil {
			t.Fatalf("FailurePenalty %v: %v", rho, err)
		}
		return routes.ecmpWeights
	}
	got, want := weights(-1), weights(0)
	for e := range want {
		if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
			t.Fatalf("link %d: weight %v with FailurePenalty -1, %v with 0", e, got[e], want[e])
		}
	}
}

// TestResolveRouterLocalSearchSpecs: the new specs resolve with their
// parameters, and defaultIters maps onto the evaluation budget.
func TestResolveRouterLocalSearchSpecs(t *testing.T) {
	for spec, want := range map[string]string{
		"ospf-ls":                          "OSPF-LS",
		"ospf-ls:iters=50,seed=7,wmax=10":  "OSPF-LS",
		"ospf-ls-robust":                   "OSPF-LS-robust",
		"ospf-ls-robust:rho=2.5,iters=100": "OSPF-LS-robust",
	} {
		r, err := ResolveRouter(spec, 0)
		if err != nil {
			t.Errorf("ResolveRouter(%q): %v", spec, err)
			continue
		}
		if r.Name() != want {
			t.Errorf("ResolveRouter(%q).Name() = %q, want %q", spec, r.Name(), want)
		}
	}
	r, err := ResolveRouter("ospf-ls", 77)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.(ospfLSRouter).opts.MaxEvals; got != 77 {
		t.Fatalf("defaultIters did not map to MaxEvals: got %d, want 77", got)
	}
}

// TestResolveRouterOptionKeyDidYouMean: unknown option keys fail with a
// near-miss suggestion — the registry's did-you-mean coverage extended
// to parameter keys.
func TestResolveRouterOptionKeyDidYouMean(t *testing.T) {
	cases := []struct {
		spec, wantSub string
	}{
		{"ospf-ls:iter=100", `did you mean "iters"`},
		{"ospf-ls:sed=3", `did you mean "seed"`},
		{"ospf-ls-robust:rh=2", `did you mean "rho"`},
		{"spef:iterations=9", `unknown parameter "iterations"`},
		// rho only parameterizes the robust variant.
		{"ospf-ls:rho=2", `unknown parameter "rho"`},
		// invcap takes no parameters at all.
		{"invcap:iters=5", "takes no parameters"},
	}
	for _, c := range cases {
		_, err := ResolveRouter(c.spec, 0)
		if err == nil {
			t.Errorf("ResolveRouter(%q) unexpectedly succeeded", c.spec)
			continue
		}
		if !errors.Is(err, ErrBadInput) {
			t.Errorf("ResolveRouter(%q): %v is not ErrBadInput", c.spec, err)
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ResolveRouter(%q) error %q missing %q", c.spec, err, c.wantSub)
		}
	}
	// The same loud-typo rule holds for topology and demand specs.
	if _, err := ResolveTopology("waxman:alfa=0.3"); err == nil || !strings.Contains(err.Error(), `did you mean "alpha"`) {
		t.Errorf("ResolveTopology(waxman:alfa=...) error %v missing alpha suggestion", err)
	}
	n, _ := RandomNetwork(1, 6, 16)
	if _, err := ResolveDemands("gravity:sigm=0.4", n); err == nil || !strings.Contains(err.Error(), `did you mean "sigma"`) {
		t.Errorf("ResolveDemands(gravity:sigm=...) error %v missing sigma suggestion", err)
	}
}

// TestSuiteAllSixRouters runs every routing scheme the repo compares —
// InvCap-OSPF, SPEF, PEFT, Optimal and both local-search routers —
// through one declarative suite over the committed Topology Zoo fixture
// with single-link failures, the acceptance sweep CI's catalog-smoke
// job replays from the command line.
func TestSuiteAllSixRouters(t *testing.T) {
	suite := &Suite{
		Topologies: []string{"zoo:file=internal/topoio/testdata/testnet.graphml"},
		Demands:    "gravity:seed=1",
		Loads:      []float64{0.05},
		Routers: []string{
			"invcap", "spef:iters=40", "peft:iters=40", "optimal:iters=40",
			"ospf-ls:iters=60", "ospf-ls-robust:iters=40",
		},
		Metrics:  []string{"mlu", "fortz", "fortz_norm"},
		Failures: "single",
	}
	results, err := suite.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	routers := map[string]int{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %s failed: %v", r.Scenario, r.Err)
		}
		routers[r.Router]++
		for _, m := range []string{"mlu", "fortz", "fortz_norm"} {
			if v, ok := r.Metric(m); !ok || math.IsNaN(v) {
				t.Fatalf("cell %s missing metric %s", r.Scenario, m)
			}
		}
	}
	for _, want := range []string{"InvCap-OSPF", "SPEF", "PEFT", "Optimal", "OSPF-LS", "OSPF-LS-robust"} {
		if routers[want] < 2 { // intact + at least one failure variant
			t.Errorf("router %s appears in %d cells, want >= 2 (got %v)", want, routers[want], routers)
		}
	}
}

// TestFortzMetrics pins the fortz metrics' semantics: the raw metric
// matches the objective over the report's flows, and the normalized
// form is raw divided by the hop-shortest uncapacitated cost.
func TestFortzMetrics(t *testing.T) {
	n, d := lsTestInstance(t)
	routes, err := OSPF(nil).Routes(context.Background(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	report, err := routes.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := FortzCostMetric().Compute(routes, d, report)
	if err != nil {
		t.Fatal(err)
	}
	if raw <= 0 {
		t.Fatalf("fortz cost %v, want > 0 for positive demand", raw)
	}
	norm, err := NormalizedFortzCostMetric().Compute(routes, d, report)
	if err != nil {
		t.Fatal(err)
	}
	if norm <= 0 {
		t.Fatalf("fortz_norm %v, want > 0", norm)
	}
	// Recompute the uncapacitated hop-shortest denominator directly.
	var uncap float64
	unit := make([]float64, n.NumLinks())
	for i := range unit {
		unit[i] = 1
	}
	// Same destination-outer accumulation order as the metric, so the
	// comparison can be exact.
	for _, dst := range d.m.Destinations() {
		sp, err := graph.DijkstraTo(n.g, unit, dst)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < n.NumNodes(); s++ {
			if v := d.At(s, dst); v > 0 {
				uncap += v * sp.Dist[s]
			}
		}
	}
	if want := raw / uncap; norm != want {
		t.Fatalf("fortz_norm %v, want raw/uncap = %v", norm, want)
	}
	ms, err := MetricsByName(MetricFortz, MetricFortzNorm)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Name() != "fortz" || ms[1].Name() != "fortz_norm" {
		t.Fatalf("MetricsByName names: %q, %q", ms[0].Name(), ms[1].Name())
	}
}
