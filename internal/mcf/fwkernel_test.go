package mcf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/par"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// fwLineSearchOracle is the line search with its derivative as a
// per-link Price loop, as it was before CostFunc.Slope batched it.
func fwLineSearchOracle(g *graph.Graph, cost objective.CostFunc, flow, target *Flow) float64 {
	dir := make([]float64, len(flow.Total))
	for e := range dir {
		dir[e] = target.Total[e] - flow.Total[e]
	}
	deriv := func(gamma float64) float64 {
		var d float64
		for e, de := range dir {
			f := flow.Total[e] + gamma*de
			d += de * cost.Price(e, f, g.Link(e).Cap)
		}
		return d
	}
	hi := 1.0
	for e, de := range dir {
		if de <= 0 {
			continue
		}
		l := g.Link(e)
		if !math.IsInf(cost.Cost(l.ID, l.Cap*(1+1e-9), l.Cap), 1) {
			continue
		}
		margin := 1.0
		if math.IsInf(cost.Cost(l.ID, l.Cap, l.Cap), 1) {
			margin = 0.999
		}
		room := l.Cap - flow.Total[e]
		if g := margin * room / de; g < hi {
			hi = g
		}
	}
	if hi <= 0 {
		return 0
	}
	if deriv(0) >= 0 {
		return 0
	}
	if deriv(hi) <= 0 {
		return hi
	}
	lo := 0.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if deriv(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// lineSearchCosts are the costs the line-search tests cover: every
// tight Slope loop and the generic ones.
func lineSearchCosts(links int) []objective.CostFunc {
	costs := []objective.CostFunc{objective.FortzThorup{}}
	for _, beta := range []float64{0, 0.5, 1, 2, 3.7} {
		costs = append(costs, objective.MustQBeta(beta, links, nil))
	}
	return costs
}

// randomPair draws a strictly interior flow and a target that may
// overload links, sharing some entries (zero direction).
func randomPair(rng *rand.Rand, g *graph.Graph) (flow, target *Flow) {
	flow = &Flow{Total: make([]float64, g.NumLinks())}
	target = &Flow{Total: make([]float64, g.NumLinks())}
	for e := range flow.Total {
		c := g.Link(e).Cap
		flow.Total[e] = 0.95 * c * rng.Float64()
		switch rng.Intn(5) {
		case 0:
			target.Total[e] = flow.Total[e]
		case 1:
			target.Total[e] = 0
		default:
			target.Total[e] = 1.6 * c * rng.Float64()
		}
	}
	return flow, target
}

// TestFWLineSearchMatchesPriceLoopBisection pins the batched line
// search's step to the pre-batching bisection bit for bit, over random
// (flow, target) pairs that reach all three of its exits: no descent,
// the full feasible step, and a bisected interior step.
func TestFWLineSearchMatchesPriceLoopBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := topo.Cernet2()
	dir := make([]float64, g.NumLinks())
	var zero, interior int
	for trial := 0; trial < 150; trial++ {
		flow, target := randomPair(rng, g)
		for _, cost := range lineSearchCosts(g.NumLinks()) {
			want := fwLineSearchOracle(g, cost, flow, target)
			got := fwLineSearch(g, cost, flow, target, dir)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, %T: gamma %v, oracle %v", trial, cost, got, want)
			}
			// Swapping the pair reverses the direction, so both the
			// descent and the no-descent exits are exercised.
			back := fwLineSearchOracle(g, cost, target, flow)
			if math.Float64bits(fwLineSearch(g, cost, target, flow, dir)) != math.Float64bits(back) {
				t.Fatalf("trial %d, %T: reversed gamma differs from oracle %v", trial, cost, back)
			}
			for _, x := range []float64{want, back} {
				switch {
				case x == 0:
					zero++
				case x > 0 && x < 1:
					interior++
				}
			}
		}
	}
	if zero == 0 || interior == 0 {
		t.Fatalf("weak coverage: %d zero and %d interior steps", zero, interior)
	}
}

// TestFWLineSearchZeroAllocs: each of the 62 slope evaluations is one
// Slope call over caller-owned vectors, so a line search allocates
// nothing.
func TestFWLineSearchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := topo.Cernet2()
	flow, target := randomPair(rng, g)
	dir := make([]float64, g.NumLinks())
	for _, cost := range lineSearchCosts(g.NumLinks()) {
		if allocs := testing.AllocsPerRun(50, func() { fwLineSearch(g, cost, flow, target, dir) }); allocs != 0 {
			t.Errorf("%T: %v allocs per line search, want 0", cost, allocs)
		}
	}
}

// triangleInit returns a 3-node triangle of capacity-10 duplex links,
// a demand matrix with destinations 1 and 2, and a finite-cost
// all-or-nothing flow of that matrix, the warm start FrankWolfe would
// take. The warm start loads the direct link 0->2 to 80%, so the
// solver has to move flow onto 0->1->2.
func triangleInit(t *testing.T) (*graph.Graph, *traffic.Matrix, *Flow) {
	t.Helper()
	g := graph.New(3)
	for _, p := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if _, _, err := g.AddDuplex(p[0], p[1], 10); err != nil {
			t.Fatal(err)
		}
	}
	tm := traffic.NewMatrix(3)
	for _, d := range []traffic.Demand{{Src: 0, Dst: 1, Volume: 1}, {Src: 0, Dst: 2, Volume: 8}, {Src: 1, Dst: 2, Volume: 2}} {
		if err := tm.Set(d.Src, d.Dst, d.Volume); err != nil {
			t.Fatal(err)
		}
	}
	init, err := AllOrNothing(g, tm, []float64{1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return g, tm, init
}

// rejectsInit runs both solvers with the warm start and requires an
// error: neither may panic or return a flow of another demand matrix.
func rejectsInit(t *testing.T, g *graph.Graph, tm *traffic.Matrix, init *Flow) {
	t.Helper()
	o := objective.MustQBeta(1, g.NumLinks(), nil)
	opts := FWOptions{MaxIters: 50, Init: init}
	if res, err := FrankWolfe(t.Context(), g, tm, o, opts); err == nil {
		t.Errorf("FrankWolfe accepted the warm start; conservation: %v", res.Flow.CheckConservation(g, tm, 1e-9))
	}
	if res, err := FrankWolfeContinuation(t.Context(), g, tm, o, opts); err == nil {
		t.Errorf("FrankWolfeContinuation accepted the warm start; conservation: %v", res.Flow.CheckConservation(g, tm, 1e-9))
	}
}

// TestFrankWolfeRejectsInitWithExtraCommodity: a warm start carrying a
// commodity the demand matrix lacks used to panic in Flow.Blend.
func TestFrankWolfeRejectsInitWithExtraCommodity(t *testing.T) {
	g, tm, aon := triangleInit(t)
	init := NewFlow(g, []int{0, 1, 2})
	for d, v := range aon.PerDest {
		copy(init.PerDest[d], v)
	}
	init.RecomputeTotal()
	rejectsInit(t, g, tm, init)
}

// TestFrankWolfeRejectsInitMissingCommodity: a warm start without one
// of the demand matrix's destinations used to come back as the
// solution, a flow that does not route that destination's demand.
func TestFrankWolfeRejectsInitMissingCommodity(t *testing.T) {
	g, tm, aon := triangleInit(t)
	init := NewFlow(g, []int{2})
	copy(init.PerDest[2], aon.PerDest[2])
	init.RecomputeTotal()
	rejectsInit(t, g, tm, init)
}

// TestAllOrNothingIntoAllocs pins the allocations of one reused-flow
// call: the flow keeps its table, its error slots and the function its
// pass hands to par.Do, so a call allocates nothing inline, and only
// par.Do's worker bookkeeping and the extra worker's goroutine when
// one runs. The calls cycle through weight vectors some of whose passes
// take the warm path and some fall back to Dijkstra, which writes the
// kept order in place.
func TestAllOrNothingIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop workspaces at random")
	}
	r20, err := topo.Random(1, 20, 80)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{topo.Cernet2(), r20} {
		tm, err := traffic.Gravity(traffic.SyntheticVolumes(3, g.NumNodes(), 0.5), 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		// A base vector, a small step from it, a jump that reorders
		// nodes, and a small step from the jump.
		cycle := make([][]float64, 4)
		for k := range cycle {
			cycle[k] = make([]float64, g.NumLinks())
			for e := range cycle[k] {
				switch k {
				case 0, 2:
					cycle[k][e] = 1 + rng.Float64()
				default:
					cycle[k][e] = cycle[k-1][e] * (1 + 1e-6*rng.Float64())
				}
			}
		}
		flow := NewFlow(g, tm.Destinations())
		var counts passCounts
		for range 2 {
			for _, w := range cycle {
				counts.predict(g, tm, w, flow)
				if _, err := AllOrNothingInto(g, tm, w, flow); err != nil {
					t.Fatal(err)
				}
			}
		}
		if counts.warm == 0 || counts.fallback == 0 {
			t.Fatalf("%d nodes: the cycle does not take both paths: %+v", g.NumNodes(), counts)
		}
		for _, tc := range []struct{ extra, want int }{{0, 0}, {1, 4}} {
			prev := par.SetExtraWorkers(tc.extra)
			i := 0
			allocs := testing.AllocsPerRun(50, func() {
				i++
				if _, err := AllOrNothingInto(g, tm, cycle[i%len(cycle)], flow); err != nil {
					t.Fatal(err)
				}
			})
			par.SetExtraWorkers(prev)
			if allocs > float64(tc.want) {
				t.Errorf("%d nodes, %d extra workers: %v allocs per call, want at most %d", g.NumNodes(), tc.extra, allocs, tc.want)
			}
		}
	}
}
