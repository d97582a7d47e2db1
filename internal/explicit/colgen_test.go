package explicit

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ksp"
	"repro/internal/mcf"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestColGenMatchesDense is the optimality property test: on small
// random topologies, column generation must land on the same MLU as
// both the k-path LP with exhaustive k and the exact multi-commodity
// optimum, within LP tolerance; on Abilene and Cernet2, on the exact
// optimum. Colgen optimizes over all simple paths, so it has no excuse
// to miss.
func TestColGenMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ctx := context.Background()
	for trial := 0; trial < 8; trial++ {
		g, w, tm := randInstance(t, rng, 4+rng.Intn(3), rng.Intn(4))
		opt, err := mcf.MinMLU(g, tm)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := NewPathLP(g, w, 64)
		if err != nil {
			t.Fatal(err)
		}
		dres, err := dense.Solve(ctx, tm)
		if err != nil {
			t.Fatal(err)
		}
		cg, err := NewPathLP(g, w, 64)
		if err != nil {
			t.Fatal(err)
		}
		cres, err := cg.SolveColGen(ctx, tm)
		if err != nil {
			t.Fatal(err)
		}
		scale := 1e-6*(1+opt.MLU) + 1e-9
		if math.Abs(cres.MLU-opt.MLU) > scale {
			t.Fatalf("trial %d: colgen MLU %v vs exact optimum %v", trial, cres.MLU, opt.MLU)
		}
		if math.Abs(cres.MLU-dres.MLU) > scale {
			t.Fatalf("trial %d: colgen MLU %v vs dense MLU %v", trial, cres.MLU, dres.MLU)
		}
		if err := cres.Flow.CheckConservation(g, tm, 1e-7); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if cres.Rounds < 1 {
			t.Fatalf("trial %d: expected at least one pricing round, got %d", trial, cres.Rounds)
		}
	}
	// The paper's evaluation networks under gravity matrices: too many
	// paths to enumerate, but colgen must still reach the exact optimum.
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"abilene", topo.Abilene()}, {"cernet2", topo.Cernet2()}} {
		vols := traffic.SyntheticVolumes(7, tc.g.NumNodes(), 0.5)
		for i := range vols {
			vols[i]++
		}
		tm, err := traffic.Gravity(vols, tc.g.TotalCapacity()*0.15)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := mcf.MinMLU(tc.g, tm)
		if err != nil {
			t.Fatal(err)
		}
		cg, err := NewPathLP(tc.g, routing.InvCapWeights(tc.g), 4)
		if err != nil {
			t.Fatal(err)
		}
		cres, err := cg.SolveColGen(ctx, tm)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cres.MLU-opt.MLU) > 1e-6*(1+opt.MLU) {
			t.Fatalf("%s: colgen MLU %v vs exact optimum %v", tc.name, cres.MLU, opt.MLU)
		}
	}
}

// TestColGenPricingNegative checks the pricing oracle's soundness: every
// column the loop generates must have strictly negative reduced cost
// against the duals it was priced with (otherwise the master gains
// nothing and the loop could cycle).
func TestColGenPricingNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	ctx := context.Background()
	for trial := 0; trial < 6; trial++ {
		g, w, tm := randInstance(t, rng, 5+rng.Intn(2), rng.Intn(5))
		cg, err := NewPathLP(g, w, 64)
		if err != nil {
			t.Fatal(err)
		}
		added := 0
		_, _, err = cg.solveColGen(ctx, tm, func(dem int, links []int, rc float64) {
			added++
			if rc >= 0 {
				t.Errorf("trial %d: demand %d gained a column with reduced cost %v >= 0 (links %v)", trial, dem, rc, links)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if added == 0 && trial == 0 {
			t.Log("no columns generated (shortest paths already optimal)")
		}
	}
}

// TestColGenTerminalOptimal checks the termination certificate: after
// the loop stops, an exhaustive k-path scan under the final pricing
// costs must find no path with meaningfully negative reduced cost for
// any demand. This is exactly the dual-feasibility condition that makes
// the restricted optimum a global one.
func TestColGenTerminalOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	ctx := context.Background()
	for trial := 0; trial < 6; trial++ {
		g, w, tm := randInstance(t, rng, 4+rng.Intn(3), rng.Intn(4))
		cg, err := NewPathLP(g, w, 64)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := cg.solveColGen(ctx, tm, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Scan with strictly positive weights (ksp requires them); the
		// floor only inflates path costs, so it cannot hide a negative
		// reduced cost.
		var maxW float64
		for _, v := range stats.wtilde {
			if v > maxW {
				maxW = v
			}
		}
		wp := make([]float64, len(stats.wtilde))
		for e, v := range stats.wtilde {
			wp[e] = v + 1e-12*(1+maxW)
		}
		margin := 10*stats.tol + 1e-9
		for i, d := range tm.Demands() {
			paths, err := ksp.KShortest(g, wp, d.Src, d.Dst, 1000)
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range paths {
				var c float64
				for _, e := range path.Links {
					c += stats.wtilde[e]
				}
				rc := d.Volume*(c-stats.c0[i]) - stats.mu[i]
				if rc < -d.Volume*margin-1e-12 {
					t.Fatalf("trial %d: terminal state leaves demand %d a path with reduced cost %v (links %v)",
						trial, i, rc, path.Links)
				}
			}
		}
	}
}

// TestColGenDeterministicAndCached re-solves on the same solver (warm
// first-path cache) and on a fresh one: all three runs must agree
// bitwise — colgen is deterministic and the cache is semantically
// invisible.
func TestColGenDeterministicAndCached(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	ctx := context.Background()
	g, w, tm := randInstance(t, rng, 7, 5)
	a, err := NewPathLP(g, w, 64)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := a.SolveColGen(ctx, tm)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.SolveColGen(ctx, tm) // warm cache
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPathLP(g, w, 64) // fresh solver
	if err != nil {
		t.Fatal(err)
	}
	r3, err := b.SolveColGen(ctx, tm)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []*LPResult{r2, r3} {
		if r.MLU != r1.MLU || r.Paths != r1.Paths || r.Rounds != r1.Rounds {
			t.Fatalf("re-solve %d diverged: MLU %v/%v paths %d/%d rounds %d/%d",
				i, r.MLU, r1.MLU, r.Paths, r1.Paths, r.Rounds, r1.Rounds)
		}
		for e, v := range r.Flow.Total {
			if v != r1.Flow.Total[e] {
				t.Fatalf("re-solve %d: flow differs on link %d: %v vs %v", i, e, v, r1.Flow.Total[e])
			}
		}
	}
}

// TestColGenErrors covers cancellation and unroutable demands.
func TestColGenErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	g, w, tm := randInstance(t, rng, 6, 3)
	cg, err := NewPathLP(g, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cg.SolveColGen(cancelled, tm); err == nil {
		t.Fatal("expected error from cancelled context")
	}
}
