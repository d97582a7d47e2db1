package spef

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
)

// TestAllRoutersThroughInterface drives all four schemes through the
// uniform Router interface on the paper's seven-node example and checks
// the uniform contract: named routes, normalized split ratios, a
// positive MLU, and the ordering OSPF <= PEFT/SPEF <= Optimal on
// utility (up to solver slack).
func TestAllRoutersThroughInterface(t *testing.T) {
	n, d, err := SimpleExample()
	if err != nil {
		t.Fatal(err)
	}
	routers := []Router{
		OSPF(nil),
		SPEF(WithMaxIterations(3000)),
		PEFT(nil, WithMaxIterations(3000)),
		Optimal(),
	}
	utilities := make(map[string]float64)
	for _, r := range routers {
		routes, err := r.Routes(t.Context(), n, d)
		if err != nil {
			t.Fatalf("%s: Routes: %v", r.Name(), err)
		}
		if routes.Router() != r.Name() {
			t.Errorf("routes.Router() = %q, want %q", routes.Router(), r.Name())
		}
		report, err := routes.Evaluate(d)
		if err != nil {
			t.Fatalf("%s: Evaluate: %v", r.Name(), err)
		}
		if report.MLU <= 0 {
			t.Errorf("%s: MLU = %v, want > 0", r.Name(), report.MLU)
		}
		utilities[r.Name()] = report.Utility
		// Split ratios are normalized at every node that carries
		// traffic.
		for _, dst := range routes.Destinations() {
			split, err := routes.SplitRatios(dst)
			if err != nil {
				t.Fatalf("%s: SplitRatios(%d): %v", r.Name(), dst, err)
			}
			for u := 0; u < n.NumNodes(); u++ {
				var sum float64
				var cnt int
				for e := 0; e < n.NumLinks(); e++ {
					from, _, _ := n.Link(e)
					if from == u && split[e] > 0 {
						sum += split[e]
						cnt++
					}
				}
				if cnt > 0 && math.Abs(sum-1) > 1e-6 {
					t.Errorf("%s: splits at node %d toward %d sum to %v", r.Name(), u, dst, sum)
				}
			}
		}
	}
	// SPEF provably attains the optimum; allow small NEM slack. OSPF
	// overloads this example (utility -Inf), so only check it is no
	// better than SPEF.
	opt := utilities[routerNameOptimal]
	spefU := utilities[routerNameSPEF]
	if spefU < opt-0.1*math.Abs(opt)-0.1 {
		t.Errorf("SPEF utility %v far below optimal %v", spefU, opt)
	}
	if utilities[routerNameInvCap] > spefU {
		t.Errorf("OSPF utility %v better than SPEF %v", utilities[routerNameInvCap], spefU)
	}
}

func TestRoutesProtocolAccessor(t *testing.T) {
	n, d, err := Fig1Example()
	if err != nil {
		t.Fatal(err)
	}
	spefRoutes, err := SPEF(WithMaxIterations(2000)).Routes(t.Context(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	if spefRoutes.Protocol() == nil {
		t.Error("SPEF routes have no Protocol")
	}
	if w := spefRoutes.Protocol().FirstWeights(); len(w) != n.NumLinks() {
		t.Errorf("FirstWeights has %d entries for %d links", len(w), n.NumLinks())
	}
	ospfRoutes, err := OSPF(nil).Routes(t.Context(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	if ospfRoutes.Protocol() != nil {
		t.Error("OSPF routes expose a SPEF Protocol")
	}
}

func TestOptimalRoutesAreDemandSpecific(t *testing.T) {
	n, d, err := Fig1Example()
	if err != nil {
		t.Fatal(err)
	}
	routes, err := Optimal().Routes(t.Context(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := routes.Evaluate(d); err != nil {
		t.Fatalf("Evaluate with original demands: %v", err)
	}
	other, err := d.Scaled(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := routes.Evaluate(other); !errors.Is(err, ErrBadInput) {
		t.Errorf("Evaluate with different demands: err = %v, want ErrBadInput", err)
	}
	if _, err := routes.Simulate(other, SimulationConfig{CapacityBitsPerUnit: 1e6, DurationSeconds: 1}); !errors.Is(err, ErrBadInput) {
		t.Errorf("Simulate with different demands: err = %v, want ErrBadInput", err)
	}
}

func TestRouterNames(t *testing.T) {
	cases := []struct {
		r    Router
		want string
	}{
		{OSPF(nil), "InvCap-OSPF"},
		{OSPF([]float64{1}), "OSPF"},
		{SPEF(), "SPEF"},
		{SPEF(WithBeta(2)), "SPEF(beta=2)"},
		{PEFT(nil), "PEFT"},
		{PEFT(nil, WithBeta(0)), "PEFT(beta=0)"},
		{PEFT([]float64{1}, WithBeta(0)), "PEFT"},
		{Optimal(), "Optimal"},
		{Optimal(WithBeta(0)), "Optimal(beta=0)"},
		{Named("unit-OSPF", OSPF([]float64{1})), "unit-OSPF"},
	}
	for _, c := range cases {
		if got := c.r.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

// TestNamedRouterDisambiguates checks Named carries through to the
// produced Routes, so two weight settings of one scheme stay apart in
// grid results.
func TestNamedRouterDisambiguates(t *testing.T) {
	n, d, err := Fig1Example()
	if err != nil {
		t.Fatal(err)
	}
	unit := make([]float64, n.NumLinks())
	for i := range unit {
		unit[i] = 1
	}
	routes, err := Named("unit-OSPF", OSPF(unit)).Routes(t.Context(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	if routes.Router() != "unit-OSPF" {
		t.Errorf("routes.Router() = %q, want %q", routes.Router(), "unit-OSPF")
	}
}

func TestOptimizeCancellationBeforeStart(t *testing.T) {
	n, d, err := Fig1Example()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Optimize(ctx, n, d); !errors.Is(err, context.Canceled) {
		t.Errorf("Optimize on canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestOptimizeCancellationMidRun cancels from inside the progress
// callback, i.e. while Algorithm 1 is iterating, and checks the
// subgradient loop aborts promptly with a clean wrapped error.
func TestOptimizeCancellationMidRun(t *testing.T) {
	n, d, err := Fig1Example()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	_, err = Optimize(ctx, n, d,
		WithMaxIterations(100000),
		WithProgress(func(p Progress) {
			if calls.Add(1) == 10 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got > 12 {
		t.Errorf("optimization ran %d iterations past cancellation", got-10)
	}
}

func TestRouterCancellation(t *testing.T) {
	n, d, err := SimpleExample()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range []Router{SPEF(), OSPF(nil), PEFT(nil), Optimal()} {
		if _, err := r.Routes(ctx, n, d); !errors.Is(err, context.Canceled) {
			t.Errorf("%s on canceled ctx: err = %v, want context.Canceled", r.Name(), err)
		}
	}
}

func TestWithProgressReportsBothStages(t *testing.T) {
	n, d, err := Fig1Example()
	if err != nil {
		t.Fatal(err)
	}
	stages := make(map[string]int)
	_, err = Optimize(t.Context(), n, d,
		WithMaxIterations(500),
		WithSplitIterations(200),
		WithProgress(func(p Progress) {
			stages[p.Stage]++
			if p.Iteration < 1 || p.Iteration > p.MaxIterations {
				t.Errorf("stage %s: iteration %d outside [1, %d]", p.Stage, p.Iteration, p.MaxIterations)
			}
		}))
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if stages[StageFirstWeights] == 0 {
		t.Error("no first-weights progress reported")
	}
	if stages[StageSecondWeights] == 0 {
		t.Error("no second-weights progress reported")
	}
}

// sameBits reports whether two vectors are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// fixedWeightInstance returns a random network with demands and random
// first and second weight vectors.
func fixedWeightInstance(t *testing.T) (*Network, *Demands, []float64, []float64) {
	t.Helper()
	n, err := RandomNetwork(3, 14, 42)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FortzThorupDemands(3, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	w := make([]float64, n.NumLinks())
	v := make([]float64, n.NumLinks())
	for e := range w {
		w[e] = float64(1 + rng.Intn(4)) // small integers make equal-cost ties
		v[e] = rng.Float64() * 3
	}
	return n, d, w, v
}

// TestFixedWeightRoutesWorkerCountParity: the shared per-destination
// build and propagation give bit-identical DAGs, splits and flows for
// any worker count.
func TestFixedWeightRoutesWorkerCountParity(t *testing.T) {
	n, d, w, v := fixedWeightInstance(t)
	prev := par.SetExtraWorkers(0)
	defer par.SetExtraWorkers(prev)
	for _, r := range []Router{OSPF(w), PEFT(w), SPEFWithWeights(w, v)} {
		var routes [2]*Routes
		var reports [2]*TrafficReport
		for i, extra := range []int{0, 8} {
			par.SetExtraWorkers(extra)
			var err error
			if routes[i], err = r.Routes(t.Context(), n, d); err != nil {
				t.Fatalf("%s: Routes: %v", r.Name(), err)
			}
			if reports[i], err = routes[i].Evaluate(d); err != nil {
				t.Fatalf("%s: Evaluate: %v", r.Name(), err)
			}
		}
		a, b := routes[0], routes[1]
		for dst, da := range a.dags {
			db := b.dags[dst]
			if db == nil || !sameBits(da.Dist, db.Dist) {
				t.Fatalf("%s: destination %d: DAG distances differ", r.Name(), dst)
			}
			for u := range da.Out {
				if !slices.Equal(da.Out[u], db.Out[u]) {
					t.Fatalf("%s: destination %d node %d: DAG out-links %v != %v", r.Name(), dst, u, da.Out[u], db.Out[u])
				}
			}
			if !sameBits(a.splits[dst], b.splits[dst]) {
				t.Fatalf("%s: destination %d: splits differ", r.Name(), dst)
			}
		}
		if len(a.dags) != len(b.dags) || len(a.splits) != len(b.splits) {
			t.Fatalf("%s: destination counts differ", r.Name())
		}
		if !sameBits(reports[0].LinkFlow, reports[1].LinkFlow) {
			t.Fatalf("%s: link flows differ", r.Name())
		}
	}
}

// TestPerDestFlowsMatchesPropagateDown: the per-destination flows the
// path metrics read are the bits of propagating each destination alone.
func TestPerDestFlowsMatchesPropagateDown(t *testing.T) {
	n, d, w, v := fixedWeightInstance(t)
	for _, r := range []Router{OSPF(w), PEFT(w), SPEFWithWeights(w, v)} {
		routes, err := r.Routes(t.Context(), n, d)
		if err != nil {
			t.Fatalf("%s: Routes: %v", r.Name(), err)
		}
		got, err := routes.perDestFlows(d)
		if err != nil {
			t.Fatalf("%s: perDestFlows: %v", r.Name(), err)
		}
		if len(got) != len(d.m.Destinations()) {
			t.Fatalf("%s: %d destinations, want %d", r.Name(), len(got), len(d.m.Destinations()))
		}
		for _, dst := range d.m.Destinations() {
			want, err := graph.PropagateDown(n.g, routes.dags[dst], d.m.ToDestination(dst), routes.splits[dst])
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got[dst], want) {
				t.Fatalf("%s: destination %d: flows differ from PropagateDown", r.Name(), dst)
			}
		}
	}
}

// TestUncoveredDestinationIsBadInput: a demand toward a destination the
// routes carry no state for fails with the public sentinel.
func TestUncoveredDestinationIsBadInput(t *testing.T) {
	n, d, err := Fig1Example()
	if err != nil {
		t.Fatal(err)
	}
	routes, err := OSPF(nil).Routes(t.Context(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	other := NewDemands(n)
	if err := other.Add(0, 1, 1); err != nil { // Fig1Example routes toward node 2 only
		t.Fatal(err)
	}
	if _, err := routes.Evaluate(other); !errors.Is(err, ErrBadInput) {
		t.Errorf("Evaluate: err = %v, want ErrBadInput", err)
	}
	if _, err := MaxStretchMetric().Compute(routes, other, nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("max_stretch: err = %v, want ErrBadInput", err)
	}
}

// TestRoutersRejectMalformedWeights: every fixed-weight router reports
// malformed weights with the public sentinel, whichever layer finds
// them, and the SPEF router also rejects non-finite second weights.
func TestRoutersRejectMalformedWeights(t *testing.T) {
	n, d, err := Fig1Example()
	if err != nil {
		t.Fatal(err)
	}
	good := []float64{1, 1, 1, 1}
	bad := map[string][]float64{
		"short":    {1, 1, 1},
		"NaN":      {1, math.NaN(), 1, 1},
		"negative": {1, -1, 1, 1},
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]Router{
		"SPEFWithWeights/second all NaN":  SPEFWithWeights(good, []float64{nan, nan, nan, nan}),
		"SPEFWithWeights/second all +Inf": SPEFWithWeights(good, []float64{inf, inf, inf, inf}),
		"SPEFWithWeights/second all -Inf": SPEFWithWeights(good, []float64{-inf, -inf, -inf, -inf}),
		"SPEFWithWeights/second one NaN":  SPEFWithWeights(good, []float64{nan, 1, 1, 1}),
	}
	for name, w := range bad {
		cases["OSPF/"+name] = OSPF(w)
		cases["PEFT/"+name] = PEFT(w)
		cases["SPEFWithWeights/"+name] = SPEFWithWeights(w, good)
	}
	for name, r := range cases {
		if _, err := r.Routes(t.Context(), n, d); !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: err = %v, want ErrBadInput", name, err)
		}
	}
}
