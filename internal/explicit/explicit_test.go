package explicit

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// randInstance builds a strongly connected random network (duplex ring
// plus chords, varied capacities) with a dense random demand matrix.
func randInstance(t *testing.T, rng *rand.Rand, n, extra int) (*graph.Graph, []float64, *traffic.Matrix) {
	t.Helper()
	g := graph.New(n)
	for i := 0; i < n; i++ {
		if _, _, err := g.AddDuplex(i, (i+1)%n, 1+9*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < extra; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if _, ok := g.FindLink(a, b); ok {
			continue
		}
		if _, _, err := g.AddDuplex(a, b, 1+9*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	w := routing.InvCapWeights(g)
	tm := traffic.NewMatrix(n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d && rng.Float64() < 0.6 {
				if err := tm.Set(s, d, rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g, w, tm
}

// TestDirectFlowMatchesOSPF checks the unit-flow assembly against the
// routing package's independent OSPF propagation: same weights, same
// matrix, near-identical aggregate flow.
func TestDirectFlowMatchesOSPF(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g, w, tm := randInstance(t, rng, 5+rng.Intn(6), rng.Intn(6))
		uf, err := BuildUnitFlows(g, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := uf.DirectFlow(tm)
		if err != nil {
			t.Fatal(err)
		}
		o, err := routing.BuildOSPF(g, tm.Destinations(), w, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := o.Flow(tm)
		if err != nil {
			t.Fatal(err)
		}
		for e := range want.Total {
			if diff := math.Abs(direct.Total[e] - want.Total[e]); diff > 1e-9 {
				t.Fatalf("trial %d: link %d direct flow %v, OSPF %v", trial, e, direct.Total[e], want.Total[e])
			}
		}
		if err := direct.CheckConservation(g, tm, 1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestTwoSegmentNeverWorseThanDirect pins the first ladder inequality:
// greedy midpoint detours only ever improve on direct ECMP routing, and
// the result conserves flow.
func TestTwoSegmentNeverWorseThanDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ctx := context.Background()
	detoured := 0
	for trial := 0; trial < 12; trial++ {
		g, w, tm := randInstance(t, rng, 5+rng.Intn(6), rng.Intn(8))
		uf, err := BuildUnitFlows(g, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := uf.DirectFlow(tm)
		if err != nil {
			t.Fatal(err)
		}
		directMLU := MaxUtil(g, direct.Total)
		sr, err := TwoSegmentOpt(ctx, uf, tm, SROptions{Segments: 2})
		if err != nil {
			t.Fatal(err)
		}
		if sr.MLU > directMLU*(1+1e-9) {
			t.Fatalf("trial %d: SR MLU %v > direct %v", trial, sr.MLU, directMLU)
		}
		if err := sr.Flow.CheckConservation(g, tm, 1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		detoured += sr.Detoured
		// segments=1 must reproduce direct routing bitwise.
		one, err := TwoSegmentOpt(ctx, uf, tm, SROptions{Segments: 1})
		if err != nil {
			t.Fatal(err)
		}
		if one.MLU != directMLU || one.Detoured != 0 {
			t.Fatalf("trial %d: 1-segment MLU %v, want direct %v", trial, one.MLU, directMLU)
		}
		for e := range direct.Total {
			if one.Flow.Total[e] != direct.Total[e] {
				t.Fatalf("trial %d: 1-segment flow differs from direct on link %d", trial, e)
			}
		}
	}
	if detoured == 0 {
		t.Fatal("no trial accepted any detour — greedy never engaged")
	}
}

// TestTwoSegmentDeterministic re-runs the greedy and demands identical
// midpoints and bitwise identical flow.
func TestTwoSegmentDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, w, tm := randInstance(t, rng, 10, 8)
	uf, err := BuildUnitFlows(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := TwoSegmentOpt(context.Background(), uf, tm, SROptions{Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		uf2, err := BuildUnitFlows(g, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TwoSegmentOpt(context.Background(), uf2, tm, SROptions{Segments: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got.MLU != ref.MLU {
			t.Fatalf("rep %d: MLU %v, want %v", rep, got.MLU, ref.MLU)
		}
		for i := range ref.Midpoint {
			if got.Midpoint[i] != ref.Midpoint[i] {
				t.Fatalf("rep %d: midpoint[%d] = %d, want %d", rep, i, got.Midpoint[i], ref.Midpoint[i])
			}
		}
		for e := range ref.Flow.Total {
			if got.Flow.Total[e] != ref.Flow.Total[e] {
				t.Fatalf("rep %d: flow differs on link %d", rep, e)
			}
		}
	}
}

// TestPathLPSandwich pins the LP between the exact multi-commodity
// optimum and a valid feasible point: MinMLU <= pathLP MLU always, and
// with k large enough to cover every simple path the LP must reach the
// optimum (within simplex tolerance) on small graphs.
func TestPathLPSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	ctx := context.Background()
	for trial := 0; trial < 8; trial++ {
		g, w, tm := randInstance(t, rng, 4+rng.Intn(3), rng.Intn(4))
		opt, err := mcf.MinMLU(g, tm)
		if err != nil {
			t.Fatal(err)
		}
		solver, err := NewPathLP(g, w, 64) // covers all simple paths at n <= 6
		if err != nil {
			t.Fatal(err)
		}
		res, err := solver.Solve(ctx, tm)
		if err != nil {
			t.Fatal(err)
		}
		if res.MLU < opt.MLU*(1-1e-6)-1e-9 {
			t.Fatalf("trial %d: path LP MLU %v below exact optimum %v", trial, res.MLU, opt.MLU)
		}
		if res.MLU > opt.MLU*(1+1e-6)+1e-9 {
			t.Fatalf("trial %d: path LP MLU %v above optimum %v despite exhaustive k", trial, res.MLU, opt.MLU)
		}
		if err := res.Flow.CheckConservation(g, tm, 1e-7); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestPathLPCacheReuse solves, rescales the matrix, and re-solves: the
// cached-candidate solve must match a fresh solver bitwise.
func TestPathLPCacheReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ctx := context.Background()
	g, w, tm := randInstance(t, rng, 8, 5)
	cached, err := NewPathLP(g, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cached.Solve(ctx, tm); err != nil {
		t.Fatal(err)
	}
	scaled, err := tm.Scaled(1.7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cached.Solve(ctx, scaled)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewPathLP(g, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Solve(ctx, scaled)
	if err != nil {
		t.Fatal(err)
	}
	if got.MLU != want.MLU || got.Paths != want.Paths {
		t.Fatalf("cached solve (MLU %v, %d paths) != fresh (MLU %v, %d paths)",
			got.MLU, got.Paths, want.MLU, want.Paths)
	}
	for e := range want.Flow.Total {
		if got.Flow.Total[e] != want.Flow.Total[e] {
			t.Fatalf("cached flow differs from fresh on link %d", e)
		}
	}
}

func TestExplicitErrors(t *testing.T) {
	g := graph.New(3)
	if _, err := g.AddLink(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	w := []float64{1}
	uf, err := BuildUnitFlows(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.NewMatrix(3)
	if err := tm.Set(0, 2, 1); err != nil { // unreachable pair
		t.Fatal(err)
	}
	if err := uf.CheckRoutable(tm); err == nil {
		t.Fatal("unroutable demand not reported")
	}
	if _, err := uf.DirectFlow(tm); err == nil {
		t.Fatal("DirectFlow accepted unroutable demand")
	}
	if _, err := TwoSegmentOpt(context.Background(), uf, tm, SROptions{Segments: 3}); err == nil {
		t.Fatal("segments=3 accepted")
	}
	if _, err := NewPathLP(g, w, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewPathLP(g, []float64{1, 1}, 2); err == nil {
		t.Fatal("wrong weight length accepted")
	}
	solver, err := NewPathLP(g, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.Solve(context.Background(), tm); err == nil {
		t.Fatal("path LP accepted unroutable demand")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tm.Set(0, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := tm.Set(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := TwoSegmentOpt(ctx, uf, tm, SROptions{Segments: 2}); err == nil {
		t.Fatal("cancelled context not propagated by TwoSegmentOpt")
	}
	if _, err := solver.Solve(ctx, tm); err == nil {
		t.Fatal("cancelled context not propagated by Solve")
	}
}
