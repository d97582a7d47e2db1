package core

// Property tests that the parallel per-destination evaluation paths are
// bit-identical to their forced-sequential forms — the correctness
// contract of the internal/par fan-out (see DESIGN.md, performance
// architecture).

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/objective"
	"repro/internal/par"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// randomInstance builds a connected random network with a dense-ish
// random demand matrix.
func randomInstance(t *testing.T, seed int64) (*graph.Graph, *traffic.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(10)
	g, err := topo.Random(seed, n, 2*(3*n/2)) // directed link count must be even

	if err != nil {
		t.Fatalf("topo.Random: %v", err)
	}
	tm := traffic.NewMatrix(g.NumNodes())
	for s := 0; s < g.NumNodes(); s++ {
		for d := 0; d < g.NumNodes(); d++ {
			if s != d && rng.Intn(3) == 0 {
				if err := tm.Add(s, d, rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g, tm
}

func flowsBitIdentical(t *testing.T, label string, a, b *mcf.Flow) {
	t.Helper()
	if len(a.PerDest) != len(b.PerDest) {
		t.Fatalf("%s: commodity count %d != %d", label, len(a.PerDest), len(b.PerDest))
	}
	for d, va := range a.PerDest {
		vb, ok := b.PerDest[d]
		if !ok {
			t.Fatalf("%s: commodity %d missing", label, d)
		}
		for e := range va {
			if va[e] != vb[e] {
				t.Fatalf("%s: commodity %d link %d: %v != %v (not bit-identical)", label, d, e, va[e], vb[e])
			}
		}
	}
	for e := range a.Total {
		if a.Total[e] != b.Total[e] {
			t.Fatalf("%s: total link %d: %v != %v (not bit-identical)", label, e, a.Total[e], b.Total[e])
		}
	}
}

// TestAllOrNothingParallelBitIdentical: the Algorithm 1 routing
// subproblem produces bitwise-equal flows sequential vs parallel.
func TestAllOrNothingParallelBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g, tm := randomInstance(t, seed)
		w := make([]float64, g.NumLinks())
		rng := rand.New(rand.NewSource(seed * 77))
		for i := range w {
			w[i] = 0.1 + rng.Float64()*5
		}
		prev := par.SetExtraWorkers(0)
		seq, errSeq := mcf.AllOrNothing(g, tm, w)
		par.SetExtraWorkers(8)
		pll, errPar := mcf.AllOrNothing(g, tm, w)
		par.SetExtraWorkers(prev)
		if errSeq != nil || errPar != nil {
			t.Fatalf("seed %d: sequential err %v, parallel err %v", seed, errSeq, errPar)
		}
		flowsBitIdentical(t, "all-or-nothing", seq, pll)
	}
}

// TestTrafficDistributionParallelBitIdentical: Algorithm 3 (the
// Algorithm 2 inner loop) produces bitwise-equal flows sequential vs
// parallel, across random second weights.
func TestTrafficDistributionParallelBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g, tm := randomInstance(t, seed)
		w := make([]float64, g.NumLinks())
		v := make([]float64, g.NumLinks())
		rng := rand.New(rand.NewSource(seed * 131))
		for i := range w {
			w[i] = 0.1 + rng.Float64()*5
			v[i] = rng.Float64() * 2
		}
		dags := make(map[int]*graph.DAG)
		for _, dst := range tm.Destinations() {
			d, err := graph.BuildDAG(g, w, dst, 0.3)
			if err != nil {
				t.Fatalf("seed %d: BuildDAG(%d): %v", seed, dst, err)
			}
			dags[dst] = d
		}
		prev := par.SetExtraWorkers(0)
		seq, errSeq := TrafficDistribution(g, dags, tm, v)
		par.SetExtraWorkers(8)
		pll, errPar := TrafficDistribution(g, dags, tm, v)
		par.SetExtraWorkers(prev)
		if errSeq != nil || errPar != nil {
			t.Fatalf("seed %d: sequential err %v, parallel err %v", seed, errSeq, errPar)
		}
		flowsBitIdentical(t, "traffic-distribution", seq, pll)
	}
}

// TestBuildParallelBitIdentical: the full SPEF pipeline (Algorithm 1 ->
// DAGs -> Algorithm 2) yields bitwise-equal weights, splits and flows
// sequential vs parallel — destinations are the only axis the fan-out
// touches.
func TestBuildParallelBitIdentical(t *testing.T) {
	g := topo.Simple()
	tm, err := traffic.FromDemands(g.NumNodes(), topo.SimpleDemands())
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.MustQBeta(1, g.NumLinks(), nil)
	opts := Options{First: FirstWeightOptions{MaxIters: 600}}

	prev := par.SetExtraWorkers(0)
	seq, errSeq := Build(t.Context(), g, tm, obj, opts)
	par.SetExtraWorkers(8)
	pll, errPar := Build(t.Context(), g, tm, obj, opts)
	par.SetExtraWorkers(prev)
	if errSeq != nil || errPar != nil {
		t.Fatalf("sequential err %v, parallel err %v", errSeq, errPar)
	}
	for e := range seq.W {
		if seq.W[e] != pll.W[e] {
			t.Fatalf("link %d: first weight %v != %v", e, seq.W[e], pll.W[e])
		}
		if seq.V[e] != pll.V[e] {
			t.Fatalf("link %d: second weight %v != %v", e, seq.V[e], pll.V[e])
		}
	}
	for _, dst := range seq.Dests {
		sa, sb := seq.Splits[dst], pll.Splits[dst]
		for e := range sa {
			if sa[e] != sb[e] {
				t.Fatalf("dst %d link %d: split %v != %v", dst, e, sa[e], sb[e])
			}
		}
	}
	flowsBitIdentical(t, "second-weight flow", seq.Second.Flow, pll.Second.Flow)
}

// TestProtocolFlowMatchesTrafficDistribution: Protocol.Flow propagates
// over the stored Eq. (22) splits, which must give exactly the bits of
// Algorithm 3 recomputing the splits from the second weights.
func TestProtocolFlowMatchesTrafficDistribution(t *testing.T) {
	rg, rtm := randomInstance(t, 5)
	cases := []struct {
		name string
		g    *graph.Graph
		tm   *traffic.Matrix
	}{
		{name: "abilene", g: topo.Abilene()},
		{name: "cernet2", g: topo.Cernet2()},
		{name: "random", g: rg, tm: rtm},
	}
	for _, c := range cases {
		if c.tm == nil {
			var err error
			vols := traffic.SyntheticVolumes(7, c.g.NumNodes(), 0.5)
			if c.tm, err = traffic.Gravity(vols, 0.2*c.g.TotalCapacity()); err != nil {
				t.Fatal(err)
			}
		}
		w := make([]float64, c.g.NumLinks())
		rng := rand.New(rand.NewSource(11))
		for i := range w {
			w[i] = 0.5 + rng.Float64()
		}
		budget, err := mcf.AllOrNothing(c.g, c.tm, w)
		if err != nil {
			t.Fatal(err)
		}
		p, err := BuildWithWeights(t.Context(), c.g, c.tm, w, budget, 0, SecondWeightOptions{MaxIters: 50})
		if err != nil {
			t.Fatalf("%s: BuildWithWeights: %v", c.name, err)
		}
		got, err := p.Flow(c.tm)
		if err != nil {
			t.Fatalf("%s: Flow: %v", c.name, err)
		}
		want, err := TrafficDistribution(p.G, p.DAGs, c.tm, p.V)
		if err != nil {
			t.Fatalf("%s: TrafficDistribution: %v", c.name, err)
		}
		flowsBitIdentical(t, c.name, want, got)
	}
}

// TestProtocolFlowUncoveredDestination: a demand toward a destination
// the protocol has no state for fails with this package's sentinel.
func TestProtocolFlowUncoveredDestination(t *testing.T) {
	p, g, _ := buildFig1SPEF(t, 1)
	tm := traffic.NewMatrix(g.NumNodes())
	if err := tm.Set(0, 1, 1); err != nil { // the protocol covers destination 2 only
		t.Fatal(err)
	}
	if _, err := p.Flow(tm); !errors.Is(err, ErrBadInput) {
		t.Errorf("uncovered destination: err = %v, want ErrBadInput", err)
	}
}
