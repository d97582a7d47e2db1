package spef_test

// One sub-benchmark per table and figure of the paper's evaluation,
// driving the same table as cmd/spef at full fidelity, plus ablation benches
// for the design choices called out in DESIGN.md. Regenerate the
// recorded numbers with:
//
//	go test -bench=. -benchmem ./... | tee bench_output.txt

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/netsim"
	"repro/internal/objective"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// BenchmarkExperiments regenerates each table and figure of the
// experiment table at full fidelity, one sub-benchmark per entry
// (BenchmarkExperiments/fig10 is the heaviest).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(context.Background(), experiments.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation and primitive benches -----------------------------------

func cernetSetup(b *testing.B) (*graph.Graph, *traffic.Matrix) {
	b.Helper()
	g := topo.Cernet2()
	vols := traffic.SyntheticVolumes(7, g.NumNodes(), 0.5)
	for i := range vols {
		vols[i] += 1
	}
	m, err := traffic.Gravity(vols, g.TotalCapacity()*0.15)
	if err != nil {
		b.Fatal(err)
	}
	return g, m
}

// BenchmarkAblationAlg1Diminishing times Algorithm 1 with the
// theoretically convergent diminishing steps.
func BenchmarkAblationAlg1Diminishing(b *testing.B) {
	g, tm := cernetSetup(b)
	obj := objective.MustQBeta(1, g.NumLinks(), nil)
	for i := 0; i < b.N; i++ {
		if _, err := core.FirstWeights(context.Background(), g, tm, obj, core.FirstWeightOptions{
			MaxIters: 1000, Mode: core.StepDiminishing, NoRefine: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlg1Constant times Algorithm 1 with the paper's
// constant default step.
func BenchmarkAblationAlg1Constant(b *testing.B) {
	g, tm := cernetSetup(b)
	obj := objective.MustQBeta(1, g.NumLinks(), nil)
	for i := 0; i < b.N; i++ {
		if _, err := core.FirstWeights(context.Background(), g, tm, obj, core.FirstWeightOptions{
			MaxIters: 1000, Mode: core.StepConstant, NoRefine: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlg1Refined times Algorithm 1 with the primal
// Frank-Wolfe refinement (the default pipeline).
func BenchmarkAblationAlg1Refined(b *testing.B) {
	g, tm := cernetSetup(b)
	obj := objective.MustQBeta(1, g.NumLinks(), nil)
	for i := 0; i < b.N; i++ {
		if _, err := core.FirstWeights(context.Background(), g, tm, obj, core.FirstWeightOptions{
			MaxIters: 1000,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func spefSplitSetup(b *testing.B) (*graph.Graph, *graph.DAG, []float64) {
	b.Helper()
	g, tm := cernetSetup(b)
	obj := objective.MustQBeta(1, g.NumLinks(), nil)
	p, err := core.Build(context.Background(), g, tm, obj, core.Options{First: core.FirstWeightOptions{MaxIters: 800}})
	if err != nil {
		b.Fatal(err)
	}
	dst := p.Dests[0]
	return g, p.DAGs[dst], p.V
}

// BenchmarkAblationSplitRecursion times the O(E) DAG recursion for the
// exponential split ratios (the production path, Eq. 22).
func BenchmarkAblationSplitRecursion(b *testing.B) {
	g, dag, v := spefSplitSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.ExponentialSplits(g, dag, v)
	}
}

// BenchmarkAblationSplitEnumeration times the brute-force per-path
// Table II formula the recursion replaces.
func BenchmarkAblationSplitEnumeration(b *testing.B) {
	g, dag, v := spefSplitSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratio := make([]float64, g.NumLinks())
		for u := 0; u < g.NumNodes(); u++ {
			if len(dag.Out[u]) == 0 {
				continue
			}
			var total float64
			byLink := map[int]float64{}
			for _, p := range graph.EnumeratePaths(g, dag, u, 0) {
				w := math.Exp(-p.Length(v))
				byLink[p[0]] += w
				total += w
			}
			for id, w := range byLink {
				ratio[id] = w / total
			}
		}
	}
}

// BenchmarkDijkstraCernet2 times one destination-rooted shortest-path
// computation (the inner loop of everything).
func BenchmarkDijkstraCernet2(b *testing.B) {
	g := topo.Cernet2()
	w := make([]float64, g.NumLinks())
	for i := range w {
		w[i] = 1 + float64(i%7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.DijkstraTo(g, w, i%g.NumNodes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrankWolfeCernet2 times the convex optimal-TE reference
// solve.
func BenchmarkFrankWolfeCernet2(b *testing.B) {
	g, tm := cernetSetup(b)
	obj := objective.MustQBeta(1, g.NumLinks(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcf.FrankWolfeContinuation(context.Background(), g, tm, obj, mcf.FWOptions{MaxIters: 500}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinMLULPCernet2 times the minimum-MLU LP (simplex substrate).
func BenchmarkMinMLULPCernet2(b *testing.B) {
	g, tm := cernetSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcf.MinMLU(g, tm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimSecond times one simulated second of the Fig. 11(a)
// packet workload.
func BenchmarkNetsimSecond(b *testing.B) {
	g := topo.Simple()
	tm, err := traffic.FromDemands(g.NumNodes(), topo.SimpleTableIVDemands())
	if err != nil {
		b.Fatal(err)
	}
	obj := objective.MustQBeta(1, g.NumLinks(), nil)
	p, err := core.Build(context.Background(), g, tm, obj, core.Options{First: core.FirstWeightOptions{MaxIters: 800}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.Run(netsim.Config{
			G:            g,
			CapacityUnit: 1e6,
			Demands:      tm.Demands(),
			Splits:       p.Splits,
			Duration:     1,
			Seed:         int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
