package mcf

import (
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func TestWithCapacities(t *testing.T) {
	g := topo.Fig1()
	caps := []float64{2, 2, 2, 2}
	g2, err := g.WithCapacities(caps)
	if err != nil {
		t.Fatalf("WithCapacities: %v", err)
	}
	if g2.Link(0).Cap != 2 || g.Link(0).Cap != 1 {
		t.Errorf("capacities: clone %v, original %v", g2.Link(0).Cap, g.Link(0).Cap)
	}
	if _, err := g.WithCapacities(caps[:2]); err == nil {
		t.Error("short capacity vector accepted")
	}
	if _, err := g.WithCapacities([]float64{1, 1, 0, 1}); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestContinuationMatchesDirectSolve(t *testing.T) {
	// An instance where the plain Frank-Wolfe needs its LP fallback: the
	// continuation must find the same optimum without any LP.
	g := topo.Fig1()
	tm := traffic.NewMatrix(4)
	if err := tm.Set(0, 2, 1.5); err != nil { // AON start overloads the direct link
		t.Fatal(err)
	}
	o := objective.MustQBeta(1, g.NumLinks(), nil)
	direct, err := FrankWolfe(t.Context(), g, tm, o, FWOptions{MaxIters: 8000, RelGap: 1e-10})
	if err != nil {
		t.Fatalf("FrankWolfe: %v", err)
	}
	cont, err := FrankWolfeContinuation(t.Context(), g, tm, o, FWOptions{MaxIters: 8000, RelGap: 1e-10})
	if err != nil {
		t.Fatalf("FrankWolfeContinuation: %v", err)
	}
	if math.Abs(direct.Cost-cont.Cost) > 1e-4*(1+math.Abs(direct.Cost)) {
		t.Errorf("continuation cost %v != direct cost %v", cont.Cost, direct.Cost)
	}
	for e := range direct.Flow.Total {
		if math.Abs(direct.Flow.Total[e]-cont.Flow.Total[e]) > 5e-3 {
			t.Errorf("link %d: continuation flow %v != direct %v", e, cont.Flow.Total[e], direct.Flow.Total[e])
		}
	}
}

func TestContinuationDetectsInfeasible(t *testing.T) {
	g := topo.Fig1()
	tm := traffic.NewMatrix(4)
	if err := tm.Set(0, 2, 2.5); err != nil { // exceeds both paths combined
		t.Fatal(err)
	}
	o := objective.MustQBeta(1, g.NumLinks(), nil)
	if _, err := FrankWolfeContinuation(t.Context(), g, tm, o, FWOptions{MaxIters: 2000}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestContinuationTightInstance(t *testing.T) {
	// 95% of min-MLU capacity: several inflation rounds are needed.
	g := topo.Fig1()
	tm := traffic.NewMatrix(4)
	if err := tm.Set(0, 2, 1.9); err != nil { // min MLU = 0.95
		t.Fatal(err)
	}
	o := objective.MustQBeta(1, g.NumLinks(), nil)
	r, err := FrankWolfeContinuation(t.Context(), g, tm, o, FWOptions{MaxIters: 6000})
	if err != nil {
		t.Fatalf("FrankWolfeContinuation: %v", err)
	}
	if got := objective.MLU(g, r.Flow.Total); got >= 1 {
		t.Errorf("MLU = %v, want < 1", got)
	}
	if err := r.Flow.CheckConservation(g, tm, 1e-6); err != nil {
		t.Errorf("conservation: %v", err)
	}
	// Optimum: maximize log(1-x) + 2 log(x-0.9) -> x = 29/30 (the detour
	// pays the barrier on two links).
	if math.Abs(r.Flow.Total[0]-29.0/30.0) > 0.01 {
		t.Errorf("direct flow = %v, want 29/30", r.Flow.Total[0])
	}
}

func TestFrankWolfeInitUsedWhenFeasible(t *testing.T) {
	g, tm := fig1TM(t)
	o := objective.MustQBeta(1, g.NumLinks(), nil)
	// A deliberately suboptimal feasible warm start: all (1,3) demand on
	// the detour.
	init, err := AllOrNothing(g, tm, []float64{9, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := FrankWolfe(t.Context(), g, tm, o, FWOptions{MaxIters: 10000, RelGap: 1e-10, Init: init})
	if err != nil {
		t.Fatalf("FrankWolfe: %v", err)
	}
	// Still converges to the 2/3-1/3 optimum.
	if math.Abs(r.Flow.Total[0]-2.0/3.0) > 5e-3 {
		t.Errorf("direct flow = %v, want 2/3", r.Flow.Total[0])
	}
	// And the original init must not be mutated.
	if init.Total[0] != 0 {
		t.Errorf("warm start mutated: %v", init.Total[0])
	}
}

// TestAllOrNothingIntoRejectsWrongShape: a reused flow for other
// destinations is rejected, and so is a weight vector of the wrong
// length or with a NaN or negative weight, on a fresh flow and on a
// warm one, with graph.ErrBadWeights and the text of the weight check
// every destination's Dijkstra used to run. A rejected vector leaves a
// warm flow routing as a fresh one does.
func TestAllOrNothingIntoRejectsWrongShape(t *testing.T) {
	g, tm := fig1TM(t)
	w := []float64{1, 1, 1, 1}
	wrong := NewFlow(g, []int{1}) // missing the real destinations
	if _, err := AllOrNothingInto(g, tm, w, wrong); err == nil {
		t.Error("mismatched reuse flow accepted")
	}
	warm, err := AllOrNothing(g, tm, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		w    []float64
		text string
	}{
		{"short", []float64{1, 1, 1}, "graph: bad weight vector: got 3 weights for 4 links"},
		{"long", []float64{1, 1, 1, 1, 1}, "graph: bad weight vector: got 5 weights for 4 links"},
		{"NaN", []float64{1, math.NaN(), 1, 1}, "graph: bad weight vector: link 1 has weight NaN"},
		{"negative", []float64{1, 1, -0.5, 1}, "graph: bad weight vector: link 2 has weight -0.5"},
	} {
		for _, flow := range []*Flow{nil, warm} {
			_, err := AllOrNothingInto(g, tm, tc.w, flow)
			if !errors.Is(err, graph.ErrBadWeights) || err.Error() != tc.text {
				t.Errorf("%s weights, warm flow %t: err = %v, want %q", tc.name, flow != nil, err, tc.text)
			}
		}
	}
	got, gotErr := AllOrNothingInto(g, tm, []float64{1, 2, 1, 1}, warm)
	want, wantErr := AllOrNothing(g, tm, []float64{1, 2, 1, 1})
	if d := sameResult(got, gotErr, want, wantErr); d != "" {
		t.Errorf("warm flow after rejected vectors: %s", d)
	}
}

// TestAllOrNothingIntoRejectsExtraCommodity: a reused flow holding a
// commodity the demand matrix lacks would keep that commodity's stale
// vector and sum it into Total, so it is rejected; an exact match is
// reused and overwritten bit for bit.
func TestAllOrNothingIntoRejectsExtraCommodity(t *testing.T) {
	g, tm := fig1TM(t)
	w := []float64{1, 1, 1, 1}
	dests := tm.Destinations()
	extra := NewFlow(g, append([]int{0}, dests...)) // node 0 receives no demand
	extra.PerDest[0][1] = 5
	if _, err := AllOrNothingInto(g, tm, w, extra); err == nil {
		t.Error("reuse flow with an extra commodity accepted")
	}
	fresh, err := AllOrNothing(g, tm, w)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := AllOrNothing(g, tm, []float64{9, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if reused, err = AllOrNothingInto(g, tm, w, reused); err != nil {
		t.Fatalf("exact reuse rejected: %v", err)
	}
	for e := range fresh.Total {
		if reused.Total[e] != fresh.Total[e] {
			t.Errorf("link %d: reused total %v, fresh %v", e, reused.Total[e], fresh.Total[e])
		}
	}
}

// TestAllOrNothingIntoRejectsShortVectors: a reused flow whose Total or
// per-destination vector is shorter than NumLinks is an error, not an
// index-out-of-range panic.
func TestAllOrNothingIntoRejectsShortVectors(t *testing.T) {
	g, tm := fig1TM(t)
	w := []float64{1, 1, 1, 1}
	dests := tm.Destinations()
	shortDest := NewFlow(g, dests)
	shortDest.PerDest[dests[0]] = shortDest.PerDest[dests[0]][:2]
	if _, err := AllOrNothingInto(g, tm, w, shortDest); err == nil {
		t.Error("reuse flow with a short commodity vector accepted")
	}
	shortTotal := NewFlow(g, dests)
	shortTotal.Total = shortTotal.Total[:1]
	if _, err := AllOrNothingInto(g, tm, w, shortTotal); err == nil {
		t.Error("reuse flow with a short Total accepted")
	}
}
