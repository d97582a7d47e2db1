package mcf

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func fig1TM(t *testing.T) (*graph.Graph, *traffic.Matrix) {
	t.Helper()
	g := topo.Fig1()
	tm, err := traffic.FromDemands(g.NumNodes(), topo.Fig1Demands())
	if err != nil {
		t.Fatalf("FromDemands: %v", err)
	}
	return g, tm
}

func TestAllOrNothingFig1(t *testing.T) {
	g, tm := fig1TM(t)
	// Unit weights: demand (1,3) takes the direct link (cost 1 < 2),
	// demand (3,4) its only path.
	w := []float64{1, 1, 1, 1}
	flow, err := AllOrNothing(g, tm, w)
	if err != nil {
		t.Fatalf("AllOrNothing: %v", err)
	}
	want := []float64{1, 0.9, 0, 0}
	for e, v := range want {
		if math.Abs(flow.Total[e]-v) > 1e-12 {
			t.Errorf("Total[%d] = %v, want %v", e, flow.Total[e], v)
		}
	}
	if err := flow.CheckConservation(g, tm, 1e-9); err != nil {
		t.Errorf("CheckConservation: %v", err)
	}
}

func TestAllOrNothingUnroutable(t *testing.T) {
	g := graph.New(3)
	if _, err := g.AddLink(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	tm := traffic.NewMatrix(3)
	if err := tm.Set(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := AllOrNothing(g, tm, []float64{1}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestAllOrNothingConservationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(8)
		g, err := topo.Random(rng.Int63(), n, 2*(n-1)+2*rng.Intn(n))
		if err != nil {
			t.Fatalf("Random: %v", err)
		}
		tm := traffic.NewMatrix(n)
		for d := 0; d < 5; d++ {
			s, u := rng.Intn(n), rng.Intn(n)
			if s != u {
				if err := tm.Add(s, u, rng.Float64()*3); err != nil {
					t.Fatal(err)
				}
			}
		}
		if tm.Total() == 0 {
			continue
		}
		w := make([]float64, g.NumLinks())
		for i := range w {
			w[i] = 0.1 + rng.Float64()
		}
		flow, err := AllOrNothing(g, tm, w)
		if err != nil {
			t.Fatalf("AllOrNothing: %v", err)
		}
		if err := flow.CheckConservation(g, tm, 1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestAllOrNothingTinyWeightsConserveOrFail sweeps the link weights
// of an all-pairs Cernet2 instance from scale 1 down to 1e-16. The
// next-hop test's slack is an absolute 1e-12, so below it a node can
// choose a next hop that was already routed (Frank-Wolfe prices
// q/(c-f)^beta reach such scales at large spare capacity and beta). At
// every scale the assignment must conserve every commodity or fail with
// ErrInfeasible — never lose flow silently.
func TestAllOrNothingTinyWeightsConserveOrFail(t *testing.T) {
	g := topo.Cernet2()
	rng := rand.New(rand.NewSource(1))
	tm := traffic.NewMatrix(g.NumNodes())
	for s := 0; s < g.NumNodes(); s++ {
		for d := 0; d < g.NumNodes(); d++ {
			if s != d {
				if err := tm.Set(s, d, 1+rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	base := make([]float64, g.NumLinks())
	for i := range base {
		base[i] = 1 + rng.Float64()
	}
	failed := 0
	for exp := 0; exp <= 16; exp++ {
		scale := math.Pow(10, -float64(exp))
		w := make([]float64, len(base))
		for i, x := range base {
			w[i] = x * scale
		}
		flow, err := AllOrNothing(g, tm, w)
		if err != nil {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("scale %g: err = %v, want ErrInfeasible", scale, err)
			}
			failed++
			continue
		}
		if err := flow.CheckConservation(g, tm, 1e-9); err != nil {
			t.Errorf("scale %g: flow silently violates conservation: %v", scale, err)
		}
	}
	if failed == 0 {
		t.Error("no scale reached the error path; the sweep no longer exercises it")
	}
}

// TestAllOrNothingZeroWeightIntoDestination: under a zero weight the
// sender ties with the destination and sorts after it (ties go by ID),
// yet flow entering the destination is delivered, not reported as
// flow sent back to an already-routed node.
func TestAllOrNothingZeroWeightIntoDestination(t *testing.T) {
	g := graph.New(3)
	if _, err := g.AddLink(2, 1, 1); err != nil {
		t.Fatal(err)
	}
	tm := traffic.NewMatrix(3)
	if err := tm.Set(2, 1, 1.5); err != nil {
		t.Fatal(err)
	}
	flow, err := AllOrNothing(g, tm, []float64{0})
	if err != nil {
		t.Fatalf("AllOrNothing: %v", err)
	}
	if flow.Total[0] != 1.5 {
		t.Errorf("Total[0] = %v, want 1.5", flow.Total[0])
	}
}

func TestFlowBlendAndClone(t *testing.T) {
	g, tm := fig1TM(t)
	a, err := AllOrNothing(g, tm, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AllOrNothing(g, tm, []float64{9, 1, 1, 1}) // detour preferred
	if err != nil {
		t.Fatal(err)
	}
	if b.Total[2] != 1 || b.Total[0] != 0 {
		t.Fatalf("detour AON unexpected: %v", b.Total)
	}
	c := a.Clone()
	c.Blend(b, 0.25)
	if math.Abs(c.Total[0]-0.75) > 1e-12 || math.Abs(c.Total[2]-0.25) > 1e-12 {
		t.Errorf("Blend Total = %v", c.Total)
	}
	if err := c.CheckConservation(g, tm, 1e-9); err != nil {
		t.Errorf("blended flow conservation: %v", err)
	}
	// Clone independence.
	if a.Total[0] != 1 {
		t.Error("Blend mutated the original")
	}
	c.RecomputeTotal()
	if math.Abs(c.Total[0]-0.75) > 1e-12 {
		t.Errorf("RecomputeTotal changed value to %v", c.Total[0])
	}
}

func TestCheckCapacity(t *testing.T) {
	g, tm := fig1TM(t)
	flow, err := AllOrNothing(g, tm, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := flow.CheckCapacity(g, 1e-9); err != nil {
		t.Errorf("CheckCapacity: %v", err)
	}
	flow.Total[1] = 2
	if err := flow.CheckCapacity(g, 1e-9); !errors.Is(err, ErrInfeasible) {
		t.Errorf("overloaded CheckCapacity err = %v, want ErrInfeasible", err)
	}
}

func TestMinMLUFig1(t *testing.T) {
	g, tm := fig1TM(t)
	r, err := MinMLU(g, tm)
	if err != nil {
		t.Fatalf("MinMLU: %v", err)
	}
	// Bottleneck is the single path (3,4) at 0.9 (Table I, MLU column).
	if math.Abs(r.MLU-0.9) > 1e-7 {
		t.Errorf("MLU = %v, want 0.9", r.MLU)
	}
	if err := r.Flow.CheckConservation(g, tm, 1e-7); err != nil {
		t.Errorf("conservation: %v", err)
	}
	if err := r.Flow.CheckCapacity(g, 1e-7); err != nil {
		t.Errorf("capacity: %v", err)
	}
}

func TestMinMLUInfeasible(t *testing.T) {
	g := graph.New(2)
	if _, err := g.AddLink(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	tm := traffic.NewMatrix(2)
	if err := tm.Set(1, 0, 1); err != nil { // no reverse link
		t.Fatal(err)
	}
	if _, err := MinMLU(g, tm); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestMinCostMCFFig1(t *testing.T) {
	g, tm := fig1TM(t)
	// Table I beta=1 weights: both 1->3 paths cost 3, (3,4) costs 10.
	w := []float64{3, 10, 1.5, 1.5}
	flow, cost, err := MinCostMCF(g, tm, w)
	if err != nil {
		t.Fatalf("MinCostMCF: %v", err)
	}
	if math.Abs(cost-(3*1+10*0.9)) > 1e-7 {
		t.Errorf("cost = %v, want 12", cost)
	}
	if err := flow.CheckConservation(g, tm, 1e-7); err != nil {
		t.Errorf("conservation: %v", err)
	}
	if err := flow.CheckCapacity(g, 1e-7); err != nil {
		t.Errorf("capacity: %v", err)
	}
}

func TestMinCostMCFWeightMismatch(t *testing.T) {
	g, tm := fig1TM(t)
	if _, _, err := MinCostMCF(g, tm, []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Errorf("short weight vector: err = %v, want ErrBadInput", err)
	}
}

// TestLPsRejectMatrixForAnotherGraph hands each LP a demand matrix one
// node smaller and one node larger than the graph.
func TestLPsRejectMatrixForAnotherGraph(t *testing.T) {
	g, _ := fig1TM(t)
	for _, n := range []int{g.NumNodes() - 1, g.NumNodes() + 1} {
		tm := traffic.NewMatrix(n)
		if err := tm.Set(0, n-1, 0.1); err != nil {
			t.Fatal(err)
		}
		if _, err := MinMLU(g, tm); !errors.Is(err, ErrBadInput) {
			t.Errorf("%d nodes: MinMLU err = %v, want ErrBadInput", n, err)
		}
		if _, _, err := MinCostMCF(g, tm, make([]float64, g.NumLinks())); !errors.Is(err, ErrBadInput) {
			t.Errorf("%d nodes: MinCostMCF err = %v, want ErrBadInput", n, err)
		}
		if _, err := LexMinMax(g, tm); !errors.Is(err, ErrBadInput) {
			t.Errorf("%d nodes: LexMinMax err = %v, want ErrBadInput", n, err)
		}
	}
}

func TestFrankWolfeFig1Beta1(t *testing.T) {
	g, tm := fig1TM(t)
	o := objective.MustQBeta(1, g.NumLinks(), nil)
	r, err := FrankWolfe(t.Context(), g, tm, o, FWOptions{MaxIters: 20000, RelGap: 1e-9})
	if err != nil {
		t.Fatalf("FrankWolfe: %v", err)
	}
	// Paper Table I beta=1: utilizations 0.67, 0.90, 0.33, 0.33.
	want := []float64{2.0 / 3.0, 0.9, 1.0 / 3.0, 1.0 / 3.0}
	for e, u := range objective.Utilizations(g, r.Flow.Total) {
		if math.Abs(u-want[e]) > 2e-3 {
			t.Errorf("utilization[%d] = %v, want %v", e, u, want[e])
		}
	}
	if err := r.Flow.CheckConservation(g, tm, 1e-6); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

func TestFrankWolfeFig1Beta0MatchesLP(t *testing.T) {
	g, tm := fig1TM(t)
	o := objective.MustQBeta(0, g.NumLinks(), nil)
	r, err := FrankWolfe(t.Context(), g, tm, o, FWOptions{})
	if err != nil {
		t.Fatalf("FrankWolfe: %v", err)
	}
	// beta=0 cost is total flow; LP with unit weights gives the optimum.
	_, lpCost, err := MinCostMCF(g, tm, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatalf("MinCostMCF: %v", err)
	}
	if math.Abs(r.Cost-lpCost) > 1e-4 {
		t.Errorf("FW cost %v != LP cost %v", r.Cost, lpCost)
	}
}

func TestFrankWolfeBarrierNeedsMLUStart(t *testing.T) {
	// Demand nearly saturating both 1->3 paths: the initial AON overloads
	// the direct link, forcing the MinMLU fallback.
	g := topo.Fig1()
	tm := traffic.NewMatrix(4)
	if err := tm.Set(0, 2, 1.5); err != nil {
		t.Fatal(err)
	}
	o := objective.MustQBeta(1, g.NumLinks(), nil)
	r, err := FrankWolfe(t.Context(), g, tm, o, FWOptions{MaxIters: 5000})
	if err != nil {
		t.Fatalf("FrankWolfe: %v", err)
	}
	// Optimal split by symmetry of log barrier: direct x solves
	// d/dx [log(1-x) + 2log(1-(1.5-x))] = 0 with both paths loaded.
	if got := objective.MLU(g, r.Flow.Total); got >= 1 {
		t.Errorf("MLU = %v, want < 1", got)
	}
	if err := r.Flow.CheckConservation(g, tm, 1e-6); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

func TestFrankWolfeInfeasible(t *testing.T) {
	g := topo.Fig1()
	tm := traffic.NewMatrix(4)
	if err := tm.Set(0, 2, 2.5); err != nil { // both paths saturated > 2
		t.Fatal(err)
	}
	o := objective.MustQBeta(1, g.NumLinks(), nil)
	if _, err := FrankWolfe(t.Context(), g, tm, o, FWOptions{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestFrankWolfeFortzThorupAllowsOverload(t *testing.T) {
	// FT cost is finite above capacity, so infeasible-for-barrier demands
	// still produce a (overloaded) solution — the paper's "OSPF MLU
	// greater than 1" regime has a well-defined FT optimum too.
	g := topo.Fig1()
	tm := traffic.NewMatrix(4)
	if err := tm.Set(0, 2, 2.5); err != nil {
		t.Fatal(err)
	}
	r, err := FrankWolfe(t.Context(), g, tm, objective.FortzThorup{}, FWOptions{})
	if err != nil {
		t.Fatalf("FrankWolfe: %v", err)
	}
	if got := objective.MLU(g, r.Flow.Total); got < 1 {
		t.Errorf("MLU = %v, want >= 1 (demand exceeds capacity)", got)
	}
}

func TestLexMinMaxFig1(t *testing.T) {
	g, tm := fig1TM(t)
	r, err := LexMinMax(g, tm)
	if err != nil {
		t.Fatalf("LexMinMax: %v", err)
	}
	// Table I min-max column: utilizations 0.50, 0.90, 0.50, 0.50.
	want := []float64{0.5, 0.9, 0.5, 0.5}
	util := objective.Utilizations(g, r.Flow.Total)
	for e := range want {
		if math.Abs(util[e]-want[e]) > 1e-6 {
			t.Errorf("utilization[%d] = %v, want %v", e, util[e], want[e])
		}
	}
	if len(r.Levels) < 2 {
		t.Fatalf("levels = %v, want at least 2 (0.9 then 0.5)", r.Levels)
	}
	if math.Abs(r.Levels[0]-0.9) > 1e-6 || math.Abs(r.Levels[1]-0.5) > 1e-6 {
		t.Errorf("levels = %v, want [0.9 0.5]", r.Levels)
	}
	if err := r.Flow.CheckConservation(g, tm, 1e-6); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

func TestLexMinMaxDominatesMinMLU(t *testing.T) {
	// Property: the lexicographic solution attains the same MLU as the
	// plain min-MLU LP on a few random instances.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(3)
		g, err := topo.Random(rng.Int63(), n, 2*(n-1)+4)
		if err != nil {
			t.Fatal(err)
		}
		tm := traffic.NewMatrix(n)
		for d := 0; d < 3; d++ {
			s, u := rng.Intn(n), rng.Intn(n)
			if s != u {
				if err := tm.Add(s, u, 0.1+rng.Float64()*0.4); err != nil {
					t.Fatal(err)
				}
			}
		}
		if tm.Total() == 0 {
			continue
		}
		mlu, err := MinMLU(g, tm)
		if err != nil {
			t.Fatalf("MinMLU: %v", err)
		}
		lex, err := LexMinMax(g, tm)
		if err != nil {
			t.Fatalf("LexMinMax: %v", err)
		}
		lexMLU := objective.MLU(g, lex.Flow.Total)
		if lexMLU > mlu.MLU+1e-6 {
			t.Errorf("trial %d: lex MLU %v > min MLU %v", trial, lexMLU, mlu.MLU)
		}
	}
}

func TestMaxUtil(t *testing.T) {
	if got := MaxUtil([]float64{0.2, 0.9, 0.5}); got != 0.9 {
		t.Errorf("MaxUtil = %v, want 0.9", got)
	}
}
