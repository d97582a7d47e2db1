package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/objective"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func fig1Setup(t *testing.T) (*graph.Graph, *traffic.Matrix) {
	t.Helper()
	g := topo.Fig1()
	tm, err := traffic.FromDemands(g.NumNodes(), topo.Fig1Demands())
	if err != nil {
		t.Fatalf("FromDemands: %v", err)
	}
	return g, tm
}

func TestFirstWeightsFig1Beta1(t *testing.T) {
	g, tm := fig1Setup(t)
	obj := objective.MustQBeta(1, g.NumLinks(), nil)
	r, err := FirstWeights(t.Context(), g, tm, obj, FirstWeightOptions{MaxIters: 30000})
	if err != nil {
		t.Fatalf("FirstWeights: %v", err)
	}
	// Paper Table I, beta=1: weights 3, 10, 1.5, 1.5; utilizations
	// 0.67, 0.90, 0.33, 0.33.
	wantW := []float64{3, 10, 1.5, 1.5}
	for e, want := range wantW {
		if rel := math.Abs(r.W[e]-want) / want; rel > 0.05 {
			t.Errorf("W[%d] = %v, want %v (+-5%%)", e, r.W[e], want)
		}
	}
	wantF := []float64{2.0 / 3.0, 0.9, 1.0 / 3.0, 1.0 / 3.0}
	for e, want := range wantF {
		if math.Abs(r.Budget[e]-want) > 0.03 {
			t.Errorf("Budget[%d] = %v, want %v", e, r.Budget[e], want)
		}
	}
	if err := r.Flow.CheckConservation(g, tm, 1e-6); err != nil {
		t.Errorf("recovered flow conservation: %v", err)
	}
	// Complementary slackness diagnostic: dual spare matches primal spare.
	for e := range r.Spare {
		if math.Abs(r.Spare[e]-r.SpareDual[e]) > 0.05 {
			t.Errorf("spare mismatch on link %d: primal %v, dual %v", e, r.Spare[e], r.SpareDual[e])
		}
	}
}

func TestFirstWeightsMatchesFrankWolfe(t *testing.T) {
	// Cross-validation on a non-trivial network: Algorithm 1's recovered
	// flow must achieve (nearly) the same utility as the Frank-Wolfe
	// optimum.
	g := topo.Simple()
	tm, err := traffic.FromDemands(g.NumNodes(), topo.SimpleDemands())
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.MustQBeta(1, g.NumLinks(), nil)
	r, err := FirstWeights(t.Context(), g, tm, obj, FirstWeightOptions{MaxIters: 20000})
	if err != nil {
		t.Fatalf("FirstWeights: %v", err)
	}
	fw, err := mcf.FrankWolfe(t.Context(), g, tm, obj, mcf.FWOptions{MaxIters: 10000, RelGap: 1e-9})
	if err != nil {
		t.Fatalf("FrankWolfe: %v", err)
	}
	uAlg1 := objective.TotalUtility(obj, g, r.Flow.Total)
	uOpt := objective.TotalUtility(obj, g, fw.Flow.Total)
	if uAlg1 < uOpt-0.05*math.Abs(uOpt)-0.05 {
		t.Errorf("algorithm 1 utility %v below Frank-Wolfe optimum %v", uAlg1, uOpt)
	}
	if err := r.Flow.CheckConservation(g, tm, 1e-6); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

func TestFirstWeightsBadInput(t *testing.T) {
	g, tm := fig1Setup(t)
	objShort := objective.MustQBeta(1, 2, nil)
	if _, err := FirstWeights(t.Context(), g, tm, objShort, FirstWeightOptions{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("short objective: err = %v, want ErrBadInput", err)
	}
	obj := objective.MustQBeta(1, g.NumLinks(), nil)
	empty := traffic.NewMatrix(g.NumNodes())
	if _, err := FirstWeights(t.Context(), g, empty, obj, FirstWeightOptions{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty matrix: err = %v, want ErrBadInput", err)
	}
	small := traffic.NewMatrix(2)
	if _, err := FirstWeights(t.Context(), g, small, obj, FirstWeightOptions{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("size mismatch: err = %v, want ErrBadInput", err)
	}
}

func TestFirstWeightsDualTrace(t *testing.T) {
	g, tm := fig1Setup(t)
	obj := objective.MustQBeta(1, g.NumLinks(), nil)
	r, err := FirstWeights(t.Context(), g, tm, obj, FirstWeightOptions{MaxIters: 2000, TraceEvery: 100, Mode: StepConstant})
	if err != nil {
		t.Fatalf("FirstWeights: %v", err)
	}
	if len(r.DualTrace) != 20 {
		t.Fatalf("trace length = %d, want 20", len(r.DualTrace))
	}
	// The dual upper bound should (weakly) approach the primal optimum:
	// its last value must be below its first (progress) for this instance.
	if r.DualTrace[len(r.DualTrace)-1] >= r.DualTrace[0] {
		t.Errorf("dual objective did not decrease: first %v, last %v",
			r.DualTrace[0], r.DualTrace[len(r.DualTrace)-1])
	}
	// Dual optimum bounds the primal utility from above.
	primal := objective.TotalUtility(obj, g, r.Flow.Total)
	if last := r.DualTrace[len(r.DualTrace)-1]; last < primal-1e-6 {
		t.Errorf("dual value %v below primal utility %v", last, primal)
	}
}

func buildFig1SPEF(t *testing.T, beta float64) (*Protocol, *graph.Graph, *traffic.Matrix) {
	t.Helper()
	g, tm := fig1Setup(t)
	obj := objective.MustQBeta(beta, g.NumLinks(), nil)
	p, err := Build(t.Context(), g, tm, obj, Options{First: FirstWeightOptions{MaxIters: 30000}})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p, g, tm
}

func TestSPEFPipelineFig1Beta1(t *testing.T) {
	p, g, tm := buildFig1SPEF(t, 1)
	// Both 1->3 paths are equal cost under the optimal weights, so node 1
	// must have two next hops toward node 3 (ID 2).
	if got := len(p.DAGs[2].Out[0]); got != 2 {
		t.Fatalf("node 1 next hops toward 3 = %d, want 2", got)
	}
	flow, err := p.Flow(tm)
	if err != nil {
		t.Fatalf("Flow: %v", err)
	}
	// The SPEF distribution realizes the beta=1 optimum (Table I).
	want := []float64{2.0 / 3.0, 0.9, 1.0 / 3.0, 1.0 / 3.0}
	for e, u := range objective.Utilizations(g, flow.Total) {
		if math.Abs(u-want[e]) > 0.04 {
			t.Errorf("utilization[%d] = %v, want %v", e, u, want[e])
		}
	}
	if err := flow.CheckConservation(g, tm, 1e-6); err != nil {
		t.Errorf("conservation: %v", err)
	}
	// Split ratios at node 1 sum to 1 and match the flow.
	split := p.Splits[2]
	var sum float64
	for _, id := range p.DAGs[2].Out[0] {
		sum += split[id]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("splits at node 1 sum to %v", sum)
	}
}

func TestSPEFSecondWeightsPenalizeDetour(t *testing.T) {
	// With v = 0 the split at node 1 would be 50/50 (one path per next
	// hop). The beta=1 optimum sends 2/3 on the direct link, so Algorithm
	// 2 must make the detour longer than the direct path in second-weight
	// units.
	p, g, _ := buildFig1SPEF(t, 1)
	split := p.Splits[2]
	direct, _ := g.FindLink(0, 2)
	if split[direct] < 0.6 {
		t.Errorf("direct split = %v, want about 2/3", split[direct])
	}
	var vDetour float64
	for _, pair := range [][2]int{{0, 1}, {1, 2}} {
		if id, ok := g.FindLink(pair[0], pair[1]); ok {
			vDetour += p.V[id]
		}
	}
	vDirect := p.V[direct]
	if vDetour <= vDirect {
		t.Errorf("detour second-weight length %v not larger than direct %v", vDetour, vDirect)
	}
}

func TestTrafficDistributionEvenWhenVZero(t *testing.T) {
	p, g, tm := buildFig1SPEF(t, 1)
	zero := make([]float64, g.NumLinks())
	flow, err := TrafficDistribution(g, p.DAGs, tm, zero)
	if err != nil {
		t.Fatalf("TrafficDistribution: %v", err)
	}
	// v = 0: one path per next hop at node 1, so a 50/50 split.
	direct, _ := g.FindLink(0, 2)
	if math.Abs(flow.Total[direct]-0.5) > 1e-9 {
		t.Errorf("direct flow = %v, want 0.5 under v=0", flow.Total[direct])
	}
}

func TestSplitRatiosMatchPathEnumeration(t *testing.T) {
	// Oracle test: the O(E) recursion of Eq. (22) must equal the
	// brute-force per-path formula on the simple network.
	g := topo.Simple()
	tm, err := traffic.FromDemands(g.NumNodes(), topo.SimpleDemands())
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.MustQBeta(1, g.NumLinks(), nil)
	p, err := Build(t.Context(), g, tm, obj, Options{First: FirstWeightOptions{MaxIters: 8000}})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, t0 := range p.Dests {
		d := p.DAGs[t0]
		ratio := p.Splits[t0]
		for u := 0; u < g.NumNodes(); u++ {
			if u == t0 || len(d.Out[u]) == 0 {
				continue
			}
			// Brute force: weight of each path e^{-v(path)} grouped by
			// first link.
			byLink := make(map[int]float64)
			var total float64
			for _, path := range graph.EnumeratePaths(g, d, u, 0) {
				wgt := math.Exp(-path.Length(p.V))
				byLink[path[0]] += wgt
				total += wgt
			}
			for _, id := range d.Out[u] {
				want := byLink[id] / total
				if math.Abs(ratio[id]-want) > 1e-9 {
					t.Errorf("dest %d node %d link %d: recursion %v, enumeration %v",
						t0, u, id, ratio[id], want)
				}
			}
		}
	}
}

func TestSecondWeightsRespectBudget(t *testing.T) {
	p, g, tm := buildFig1SPEF(t, 1)
	flow, err := p.Flow(tm)
	if err != nil {
		t.Fatal(err)
	}
	budget := p.First.Budget
	eps := 2e-3 * mcf.MaxUtil(budget) // matches the default tolerance scale
	for e := range budget {
		if flow.Total[e] > budget[e]+10*eps {
			t.Errorf("link %d: flow %v exceeds budget %v", e, flow.Total[e], budget[e])
		}
	}
	_ = g
}

func TestSecondWeightsErrors(t *testing.T) {
	g, tm := fig1Setup(t)
	dags := map[int]*graph.DAG{}
	if _, err := SecondWeights(t.Context(), g, tm, dags, []float64{1}, SecondWeightOptions{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("short budget: err = %v, want ErrBadInput", err)
	}
	if _, err := SecondWeights(t.Context(), g, tm, dags, make([]float64, 4), SecondWeightOptions{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero budget: err = %v, want ErrBadInput", err)
	}
	budget := []float64{1, 1, 1, 1}
	if _, err := SecondWeights(t.Context(), g, tm, dags, budget, SecondWeightOptions{MaxIters: 5}); !errors.Is(err, ErrBadInput) {
		t.Errorf("missing DAG: err = %v, want ErrBadInput", err)
	}
}

func TestForwardingTableFig1(t *testing.T) {
	p, g, _ := buildFig1SPEF(t, 1)
	ft, err := p.ForwardingTable(0, 2)
	if err != nil {
		t.Fatalf("ForwardingTable: %v", err)
	}
	if len(ft.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(ft.Entries))
	}
	var ratioSum float64
	for _, e := range ft.Entries {
		if len(e.PathLengths) != 1 {
			t.Errorf("next hop %d has %d paths, want 1", e.NextHop, len(e.PathLengths))
		}
		ratioSum += e.Ratio
	}
	if math.Abs(ratioSum-1) > 1e-9 {
		t.Errorf("ratios sum to %v", ratioSum)
	}
	// Entries sorted by descending ratio; the direct next hop dominates.
	if ft.Entries[0].NextHop != 2 {
		t.Errorf("dominant next hop = %d, want 2 (direct)", ft.Entries[0].NextHop)
	}
	if _, err := p.ForwardingTable(0, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("missing dest: err = %v, want ErrBadInput", err)
	}
	if _, err := p.ForwardingTable(-1, 2); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad node: err = %v, want ErrBadInput", err)
	}
	_ = g
}

func TestIntegerWeights(t *testing.T) {
	w := []float64{3, 10, 1.5, 1.5}
	spare := []float64{1.0 / 3.0, 0.1, 2.0 / 3.0, 2.0 / 3.0}
	iw, scale, err := IntegerWeights(w, spare)
	if err != nil {
		t.Fatalf("IntegerWeights: %v", err)
	}
	if scale != 2.0/3.0 {
		t.Errorf("scale = %v, want 2/3", scale)
	}
	// w * maxSpare = 2, 6.67, 1, 1.
	want := []float64{2, 7, 1, 1}
	for e := range want {
		if iw[e] != want[e] {
			t.Errorf("integer weight[%d] = %v, want %v", e, iw[e], want[e])
		}
	}
	if _, _, err := IntegerWeights(w, spare[:2]); !errors.Is(err, ErrBadInput) {
		t.Errorf("mismatched lengths: err = %v, want ErrBadInput", err)
	}
	if _, _, err := IntegerWeights(w, []float64{0, 0, 0, 0}); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero spare: err = %v, want ErrBadInput", err)
	}
}

func TestBuildWithIntegerWeights(t *testing.T) {
	// Fig. 13 machinery: rounding the optimal weights and re-running the
	// split stage still yields a conserving flow with bounded utility
	// loss at low load.
	p, g, tm := buildFig1SPEF(t, 1)
	iw, _, err := IntegerWeights(p.First.W, p.First.Spare)
	if err != nil {
		t.Fatalf("IntegerWeights: %v", err)
	}
	ip, err := BuildWithWeights(t.Context(), g, tm, iw, p.First.Flow, 1.0, SecondWeightOptions{})
	if err != nil {
		t.Fatalf("BuildWithWeights: %v", err)
	}
	flow, err := ip.Flow(tm)
	if err != nil {
		t.Fatalf("Flow: %v", err)
	}
	if err := flow.CheckConservation(g, tm, 1e-6); err != nil {
		t.Errorf("conservation: %v", err)
	}
	realU := objective.LogSpareUtility(g, p.Second.Flow.Total)
	intU := objective.LogSpareUtility(g, flow.Total)
	if math.IsInf(intU, -1) {
		t.Fatal("integer-weight flow overloads a link at low load")
	}
	if intU < realU-1.0 {
		t.Errorf("integer-weight utility %v much worse than real-weight %v", intU, realU)
	}
}

func TestBetaZeroAndLargeBetaBehaviour(t *testing.T) {
	// Remark 2: beta=0 is min-hop-like (all Fig. 1 demand on the direct
	// link); large beta approaches min-max (0.5/0.5 split).
	g, tm := fig1Setup(t)
	direct, _ := g.FindLink(0, 2)

	obj0 := objective.MustQBeta(0, g.NumLinks(), nil)
	r0, err := FirstWeights(t.Context(), g, tm, obj0, FirstWeightOptions{MaxIters: 20000})
	if err != nil {
		t.Fatalf("beta=0: %v", err)
	}
	if r0.Budget[direct] < 0.9 {
		t.Errorf("beta=0 direct flow = %v, want ~1 (min hop)", r0.Budget[direct])
	}

	obj5 := objective.MustQBeta(5, g.NumLinks(), nil)
	r5, err := FirstWeights(t.Context(), g, tm, obj5, FirstWeightOptions{MaxIters: 30000})
	if err != nil {
		t.Fatalf("beta=5: %v", err)
	}
	// As beta grows the split approaches min-max 0.5 (paper Fig. 3b).
	if math.Abs(r5.Budget[direct]-0.5) > 0.1 {
		t.Errorf("beta=5 direct flow = %v, want ~0.5 (toward min-max)", r5.Budget[direct])
	}
}
