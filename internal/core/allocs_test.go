package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/objective"
	"repro/internal/par"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// distributionInput is one Algorithm 3 evaluation: a gravity matrix
// over every node, shortest-path DAGs under random first weights and
// random second weights.
func distributionInput(t *testing.T, g *graph.Graph) (*traffic.Matrix, map[int]*graph.DAG, []float64) {
	t.Helper()
	tm, err := traffic.Gravity(traffic.SyntheticVolumes(3, g.NumNodes(), 0.5), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, g.NumLinks())
	v := make([]float64, g.NumLinks())
	for e := range w {
		w[e] = float64(1 + rng.Intn(3)) // ties give multi-successor DAGs
		v[e] = rng.Float64()
	}
	dags := make(map[int]*graph.DAG)
	for _, d := range tm.Destinations() {
		if dags[d], err = graph.BuildDAG(g, w, d, 0); err != nil {
			t.Fatal(err)
		}
	}
	return tm, dags, v
}

func allocGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	r20, err := topo.Random(1, 20, 80)
	if err != nil {
		t.Fatal(err)
	}
	return []*graph.Graph{topo.Cernet2(), r20}
}

// TestTrafficDistributionIntoAllocs pins the allocations of one
// reused-flow call: the flow keeps its table, its error slots and the
// function its pass hands to par.Do, so a call allocates nothing
// inline, and only par.Do's worker bookkeeping and the extra worker's
// goroutine when one runs.
func TestTrafficDistributionIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop workspaces at random")
	}
	for _, g := range allocGraphs(t) {
		tm, dags, v := distributionInput(t, g)
		flow := mcf.NewFlow(g, tm.Destinations())
		for _, tc := range []struct{ extra, want int }{{0, 0}, {1, 4}} {
			prev := par.SetExtraWorkers(tc.extra)
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := TrafficDistributionInto(g, dags, tm, v, flow); err != nil {
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

// TestBuildAllocsCernet2 pins the allocations of one Cernet2 SPEF
// build, the Algorithm 4 pipeline spef.Optimize runs, on one thread:
// a gravity matrix scaled so InvCap OSPF peaks at 80% utilization, as
// the optimize benchmark draws them. Its thousands of per-destination
// passes allocate nothing, so what is left is the pipeline's own
// vectors, flows and DAGs: about 600 allocations, where a pass that
// allocated its error slice and par.Do closure made over 14,000.
func TestBuildAllocsCernet2(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop workspaces at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := topo.Cernet2()
	tm, err := traffic.Gravity(traffic.SyntheticVolumes(3, g.NumNodes(), 0.5), 1)
	if err != nil {
		t.Fatal(err)
	}
	ospf, err := routing.BuildOSPF(g, tm.Destinations(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := routing.Flow(g, ospf.DAGs, ospf.Splits, tm)
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Scale(0.8 / objective.MLU(g, flow.Total)); err != nil {
		t.Fatal(err)
	}
	obj := objective.MustQBeta(1, g.NumLinks(), nil)
	build := func() {
		if _, err := Build(t.Context(), g, tm, obj, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	build()
	const limit = 800
	if allocs := testing.AllocsPerRun(3, build); allocs > limit {
		t.Errorf("%v allocations per Cernet2 build, want at most %d", allocs, limit)
	}
}

// TestTrafficDistributionIntoReuse: a reused flow must carry exactly
// the matrix's commodities (an extra one would keep a stale vector
// that is summed into Total), and an exact one is overwritten bit for
// bit like a fresh flow.
func TestTrafficDistributionIntoReuse(t *testing.T) {
	g := topo.Cernet2()
	tm, dags, v := distributionInput(t, g)
	dests := tm.Destinations()
	fresh, err := TrafficDistribution(g, dags, tm, v)
	if err != nil {
		t.Fatal(err)
	}
	reused := mcf.NewFlow(g, dests)
	for e := range reused.Total {
		reused.PerDest[dests[0]][e] = 7
	}
	if reused, err = TrafficDistributionInto(g, dags, tm, v, reused); err != nil {
		t.Fatal(err)
	}
	for e := range fresh.Total {
		if math.Float64bits(reused.Total[e]) != math.Float64bits(fresh.Total[e]) {
			t.Fatalf("link %d: reused total %v, fresh %v", e, reused.Total[e], fresh.Total[e])
		}
	}
	small, err := traffic.FromDemands(g.NumNodes(), []traffic.Demand{{Src: 0, Dst: dests[1], Volume: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrafficDistributionInto(g, dags, small, v, mcf.NewFlow(g, dests)); !errors.Is(err, ErrBadInput) {
		t.Errorf("flow with extra commodities: err = %v, want ErrBadInput", err)
	}
	if _, err := TrafficDistributionInto(g, dags, tm, v, mcf.NewFlow(g, dests[1:])); !errors.Is(err, ErrBadInput) {
		t.Errorf("flow missing a commodity: err = %v, want ErrBadInput", err)
	}
}
