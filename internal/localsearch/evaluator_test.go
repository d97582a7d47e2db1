package localsearch

import (
	"math/rand"
	"testing"

	"repro/internal/delta"
	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// randomInstance builds a connected random topology with a gravity-like
// demand matrix for property tests.
func randomInstance(t *testing.T, seed int64, nodes, links int) (*graph.Graph, *traffic.Matrix) {
	t.Helper()
	g, err := topo.Random(seed, nodes, links)
	if err != nil {
		t.Fatalf("topo.Random: %v", err)
	}
	vols := traffic.SyntheticVolumes(seed+100, g.NumNodes(), 0.5)
	for i := range vols {
		vols[i] += 0.5
	}
	tm, err := traffic.Gravity(vols, g.TotalCapacity()*0.2)
	if err != nil {
		t.Fatalf("traffic.Gravity: %v", err)
	}
	return g, tm
}

// TestIncrementalBitIdenticalToFull is the package's central property:
// across random topologies, random single-weight perturbation
// sequences, and single-link-failure variants, the incrementally
// maintained evaluator state is bit-identical to a full re-evaluation
// from scratch after every step, and TryWeight predicts the post-apply
// cost exactly.
func TestIncrementalBitIdenticalToFull(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 8 + rng.Intn(8)
		links := 2 * (nodes + rng.Intn(2*nodes))
		g, tm := randomInstance(t, seed, nodes, links)

		// Exercise both the intact topology and a degraded variant: drop
		// one duplex pair that keeps the demands routable.
		type inst struct {
			name string
			g    *graph.Graph
		}
		instances := []inst{{name: "intact", g: g}}
		for _, pair := range g.DuplexPairs() {
			g2, _, err := g.WithoutLinks(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if routable(g2, tm) {
				instances = append(instances, inst{name: "failed", g: g2})
				break
			}
		}

		for _, in := range instances {
			w := make([]float64, in.g.NumLinks())
			for i := range w {
				w[i] = float64(1 + rng.Intn(20))
			}
			inc, err := delta.NewEvaluator(in.g, tm, w, 0)
			if err != nil {
				t.Fatalf("seed %d %s: NewEvaluator: %v", seed, in.name, err)
			}
			scratch := inc.NewScratch()
			for step := 0; step < 40; step++ {
				e := rng.Intn(in.g.NumLinks())
				nw := float64(1 + rng.Intn(20))
				predicted, err := inc.TryWeight(scratch, e, nw)
				if err != nil {
					t.Fatalf("seed %d %s step %d: TryWeight: %v", seed, in.name, step, err)
				}
				if err := inc.SetWeight(e, nw); err != nil {
					t.Fatalf("seed %d %s step %d: SetWeight: %v", seed, in.name, step, err)
				}
				if got := inc.Cost(); got != predicted {
					t.Fatalf("seed %d %s step %d: TryWeight predicted cost %v, SetWeight produced %v",
						seed, in.name, step, predicted, got)
				}
				full, err := delta.NewEvaluator(in.g, tm, inc.Weights(), 0)
				if err != nil {
					t.Fatalf("seed %d %s step %d: full re-evaluation: %v", seed, in.name, step, err)
				}
				if err := inc.Equal(full); err != nil {
					t.Fatalf("seed %d %s step %d (link %d -> %v): incremental state diverged from full re-evaluation: %v",
						seed, in.name, step, e, nw, err)
				}
			}
		}
	}
}

func routable(g *graph.Graph, tm *traffic.Matrix) bool {
	for _, dst := range tm.Destinations() {
		sp, err := graph.DijkstraTo(g, make([]float64, g.NumLinks()), dst)
		if err != nil {
			return false
		}
		for s := 0; s < g.NumNodes(); s++ {
			if tm.At(s, dst) > 0 && sp.Dist[s] == graph.Unreachable {
				return false
			}
		}
	}
	return true
}

// TestEvaluatorMatchesBuildOSPF: the evaluator's cost must equal the
// Fortz-Thorup cost of the flow the production OSPF forwarding engine
// computes for the same weights — same DAGs, same even splits, same
// destination-ordered summation.
func TestEvaluatorMatchesBuildOSPF(t *testing.T) {
	g, tm := randomInstance(t, 3, 12, 40)
	rng := rand.New(rand.NewSource(9))
	w := make([]float64, g.NumLinks())
	for i := range w {
		w[i] = float64(1 + rng.Intn(20))
	}
	ev, err := delta.NewEvaluator(g, tm, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A few incremental updates first, so the comparison covers the
	// maintained state rather than the constructor path.
	for k := 0; k < 10; k++ {
		if err := ev.SetWeight(rng.Intn(g.NumLinks()), float64(1+rng.Intn(20))); err != nil {
			t.Fatal(err)
		}
	}
	cost, total := ospfCost(t, g, tm, ev.Weights())
	if ev.Cost() != cost {
		t.Fatalf("evaluator cost %v, BuildOSPF-based cost %v", ev.Cost(), cost)
	}
	for e, f := range ev.TotalFlow() {
		if f != total[e] {
			t.Fatalf("link %d: evaluator flow %v, BuildOSPF flow %v", e, f, total[e])
		}
	}
}

// TestSetWeightNoAllocSteadyState pins the incremental hot path
// allocation-free after warm-up — the property the bench harness's
// regression gate relies on.
func TestSetWeightNoAllocSteadyState(t *testing.T) {
	g, tm := randomInstance(t, 4, 10, 32)
	w := make([]float64, g.NumLinks())
	for i := range w {
		w[i] = 1
	}
	ev, err := delta.NewEvaluator(g, tm, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up every (link, weight) pair the measured loop will touch.
	step := 0
	op := func() {
		e := step * 7 % g.NumLinks()
		if err := ev.SetWeight(e, float64(1+step%11)); err != nil {
			t.Fatal(err)
		}
		step++
	}
	for i := 0; i < 4*g.NumLinks(); i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(200, op); allocs > 0 {
		t.Fatalf("SetWeight allocates %v allocs/op in steady state, want 0", allocs)
	}
}
