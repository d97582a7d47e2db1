package routing

import (
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/objective"
	"repro/internal/par"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func TestInvCapWeights(t *testing.T) {
	g := topo.Cernet2()
	w := InvCapWeights(g)
	for _, l := range g.Links() {
		want := 10.0 / l.Cap // max capacity is the 10G trunk
		if math.Abs(w[l.ID]-want) > 1e-12 {
			t.Errorf("link %d weight = %v, want %v", l.ID, w[l.ID], want)
		}
	}
}

func TestOSPFEvenSplitFig1(t *testing.T) {
	// Fig. 1 with unit capacities: InvCap gives unit weights, so the two
	// 1->3 paths are NOT equal cost (1 hop vs 2); all demand takes the
	// direct link.
	g := topo.Fig1()
	tm, err := traffic.FromDemands(g.NumNodes(), topo.Fig1Demands())
	if err != nil {
		t.Fatal(err)
	}
	o, err := BuildOSPF(g, tm.Destinations(), nil, 0)
	if err != nil {
		t.Fatalf("BuildOSPF: %v", err)
	}
	flow, err := o.Flow(tm)
	if err != nil {
		t.Fatalf("Flow: %v", err)
	}
	want := []float64{1, 0.9, 0, 0}
	for e := range want {
		if math.Abs(flow.Total[e]-want[e]) > 1e-12 {
			t.Errorf("flow[%d] = %v, want %v", e, flow.Total[e], want[e])
		}
	}
	if err := flow.CheckConservation(g, tm, 1e-9); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

func TestOSPFECMPSplitsEvenly(t *testing.T) {
	// Diamond: two equal-cost 2-hop paths from 0 to 3 -> 50/50.
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if _, err := g.AddLink(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	tm := traffic.NewMatrix(4)
	if err := tm.Set(0, 3, 1); err != nil {
		t.Fatal(err)
	}
	o, err := BuildOSPF(g, tm.Destinations(), nil, 0)
	if err != nil {
		t.Fatalf("BuildOSPF: %v", err)
	}
	flow, err := o.Flow(tm)
	if err != nil {
		t.Fatalf("Flow: %v", err)
	}
	for e := 0; e < 4; e++ {
		if math.Abs(flow.Total[e]-0.5) > 1e-12 {
			t.Errorf("flow[%d] = %v, want 0.5", e, flow.Total[e])
		}
	}
}

func TestOSPFErrors(t *testing.T) {
	g := topo.Fig1()
	if _, err := BuildOSPF(g, []int{2}, []float64{1}, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("short weights: err = %v, want ErrBadInput", err)
	}
	o, err := BuildOSPF(g, []int{2}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.NewMatrix(4)
	if err := tm.Set(2, 3, 1); err != nil { // destination 3 has no state
		t.Fatal(err)
	}
	if _, err := o.Flow(tm); !errors.Is(err, ErrBadInput) {
		t.Errorf("missing dest: err = %v, want ErrBadInput", err)
	}
}

// peftDiamond builds an asymmetric diamond where PEFT splits unevenly:
// 0->1->3 costs 2, 0->2->3 costs 3 (one unit longer).
func peftDiamond(t *testing.T) (*graph.Graph, *traffic.Matrix, []float64) {
	t.Helper()
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if _, err := g.AddLink(e[0], e[1], 10); err != nil {
			t.Fatal(err)
		}
	}
	tm := traffic.NewMatrix(4)
	if err := tm.Set(0, 3, 1); err != nil {
		t.Fatal(err)
	}
	return g, tm, []float64{1, 2, 1, 1}
}

func TestPEFTExponentialPenalty(t *testing.T) {
	g, tm, w := peftDiamond(t)
	p, err := BuildPEFT(g, tm.Destinations(), w)
	if err != nil {
		t.Fatalf("BuildPEFT: %v", err)
	}
	flow, err := p.Flow(tm)
	if err != nil {
		t.Fatalf("Flow: %v", err)
	}
	// Penalties at node 0: shortest path via 1 (h=0), via 2 (h=1).
	// Split = 1 : e^-1.
	wantVia1 := 1 / (1 + math.Exp(-1))
	if math.Abs(flow.Total[0]-wantVia1) > 1e-9 {
		t.Errorf("flow via node 1 = %v, want %v", flow.Total[0], wantVia1)
	}
	if math.Abs(flow.Total[1]-(1-wantVia1)) > 1e-9 {
		t.Errorf("flow via node 2 = %v, want %v", flow.Total[1], 1-wantVia1)
	}
	if err := flow.CheckConservation(g, tm, 1e-9); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

func TestPEFTUsesMorePathsThanOSPF(t *testing.T) {
	// On the asymmetric diamond OSPF uses only the shortest path while
	// PEFT spreads over both (the defining behavioural difference).
	g, tm, w := peftDiamond(t)
	o, err := BuildOSPF(g, tm.Destinations(), w, 0)
	if err != nil {
		t.Fatal(err)
	}
	ospfFlow, err := o.Flow(tm)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPEFT(g, tm.Destinations(), w)
	if err != nil {
		t.Fatal(err)
	}
	peftFlow, err := p.Flow(tm)
	if err != nil {
		t.Fatal(err)
	}
	linksUsed := func(flow []float64) int {
		n := 0
		for _, f := range flow {
			if f > 1e-9 {
				n++
			}
		}
		return n
	}
	if got := linksUsed(ospfFlow.Total); got != 2 {
		t.Errorf("OSPF links used = %d, want 2", got)
	}
	if got := linksUsed(peftFlow.Total); got != 4 {
		t.Errorf("PEFT links used = %d, want 4", got)
	}
}

func TestPEFTErrors(t *testing.T) {
	g := topo.Fig1()
	if _, err := BuildPEFT(g, []int{2}, []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Errorf("short weights: err = %v, want ErrBadInput", err)
	}
	p, err := BuildPEFT(g, []int{2}, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.NewMatrix(4)
	if err := tm.Set(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Flow(tm); !errors.Is(err, ErrBadInput) {
		t.Errorf("missing dest: err = %v, want ErrBadInput", err)
	}
}

func TestOSPFOverloadsWhereSPEFOptimumFits(t *testing.T) {
	// The headline comparison: on the simple network, InvCap OSPF
	// concentrates 12 units onto few links (MLU > 1), while the optimal
	// distribution fits (MLU < 1) — paper Fig. 6.
	g := topo.Simple()
	tm, err := traffic.FromDemands(g.NumNodes(), topo.SimpleDemands())
	if err != nil {
		t.Fatal(err)
	}
	o, err := BuildOSPF(g, tm.Destinations(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := o.Flow(tm)
	if err != nil {
		t.Fatal(err)
	}
	ospfMLU := objective.MLU(g, flow.Total)
	opt, err := mcf.MinMLU(g, tm)
	if err != nil {
		t.Fatal(err)
	}
	if opt.MLU >= 1 {
		t.Fatalf("optimal MLU = %v, want < 1 (topology must admit the demands)", opt.MLU)
	}
	if ospfMLU <= opt.MLU {
		t.Errorf("OSPF MLU %v not worse than optimal %v — comparison degenerate", ospfMLU, opt.MLU)
	}
}

// TestBuildReportsFirstErrorInDestsOrder: when several destinations
// fail, Build reports the one that comes first in dests, not the first
// to finish or the smallest ID, for any worker count.
func TestBuildReportsFirstErrorInDestsOrder(t *testing.T) {
	g := topo.Cernet2()
	w := InvCapWeights(g)
	errEarly, errLate := errors.New("early"), errors.New("late")
	dests := []int{5, 1, 3, 0, 2, 4}
	state := func(ws *graph.Workspace, dst int, ratio []float64) (*graph.DAG, error) {
		switch dst {
		case 3:
			return nil, errEarly
		case 2:
			return nil, errLate
		}
		return ws.BuildDAG(g, w, dst, 0)
	}
	prev := par.SetExtraWorkers(0)
	defer par.SetExtraWorkers(prev)
	for _, extra := range []int{0, 8} {
		par.SetExtraWorkers(extra)
		if _, _, err := Build(g, dests, state); !errors.Is(err, errEarly) || errors.Is(err, errLate) {
			t.Errorf("%d extra workers: err = %v, want the destination 3 error", extra, err)
		}
	}
}
