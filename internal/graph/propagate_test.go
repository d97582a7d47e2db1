package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestDownwardDAGSuperset(t *testing.T) {
	g := fig1(t)
	w := []float64{3, 10, 1.6, 1.6} // detour slightly longer
	sp, err := BuildDAG(g, w, 2, 0)
	if err != nil {
		t.Fatalf("BuildDAG: %v", err)
	}
	down, err := DownwardDAG(g, w, 2)
	if err != nil {
		t.Fatalf("DownwardDAG: %v", err)
	}
	// The downward DAG contains every shortest-path DAG link.
	for u := 0; u < g.NumNodes(); u++ {
		for _, id := range sp.Out[u] {
			if !down.HasLink(g, id) {
				t.Errorf("shortest link %d missing from downward DAG", id)
			}
		}
	}
	// And here it is a strict superset: the detour links are downward.
	if got := len(down.Out[0]); got != 2 {
		t.Errorf("node 1 downward degree = %d, want 2", got)
	}
	if got := len(sp.Out[0]); got != 1 {
		t.Errorf("node 1 shortest degree = %d, want 1", got)
	}
	if err := down.CheckAcyclic(g); err != nil {
		t.Errorf("CheckAcyclic: %v", err)
	}
}

func TestPropagateDownEvenSplit(t *testing.T) {
	g := fig1(t)
	w := []float64{3, 10, 1.5, 1.5} // both 1->3 paths equal cost
	d, err := BuildDAG(g, w, 2, 0)
	if err != nil {
		t.Fatalf("BuildDAG: %v", err)
	}
	// Even ECMP split at node 1 (two next hops).
	ratio := make([]float64, g.NumLinks())
	for u := 0; u < g.NumNodes(); u++ {
		for _, id := range d.Out[u] {
			ratio[id] = 1 / float64(len(d.Out[u]))
		}
	}
	demand := []float64{1, 0, 0, 0}
	flow, err := PropagateDown(g, d, demand, ratio)
	if err != nil {
		t.Fatalf("PropagateDown: %v", err)
	}
	want := []float64{0.5, 0, 0.5, 0.5}
	for e := range want {
		if math.Abs(flow[e]-want[e]) > 1e-12 {
			t.Errorf("flow[%d] = %v, want %v", e, flow[e], want[e])
		}
	}
}

func TestPropagateDownErrors(t *testing.T) {
	g := fig1(t)
	w := []float64{3, 10, 1.5, 1.5}
	d, err := BuildDAG(g, w, 2, 0)
	if err != nil {
		t.Fatalf("BuildDAG: %v", err)
	}
	ratio := make([]float64, g.NumLinks())
	demand := make([]float64, g.NumNodes())

	if _, err := PropagateDown(g, d, demand[:2], ratio); err == nil {
		t.Error("short demand vector accepted")
	}
	if _, err := PropagateDown(g, d, demand, ratio[:1]); err == nil {
		t.Error("short ratio vector accepted")
	}
	demand[0] = -1
	if _, err := PropagateDown(g, d, demand, ratio); err == nil {
		t.Error("negative demand accepted")
	}
	demand[0] = 0
	demand[3] = 1 // node 4 cannot reach node 3
	if _, err := PropagateDown(g, d, demand, ratio); err == nil {
		t.Error("unreachable demand accepted")
	}
	demand[3] = 0
	demand[0] = 1 // ratios at node 1 sum to 0, not 1
	if _, err := PropagateDown(g, d, demand, ratio); err == nil {
		t.Error("non-normalized ratios accepted")
	}
	EvenSplitsInto(g, d, ratio)
	ratio[d.Out[0][0]] = math.NaN() // the sum at node 1 is NaN, downstream sums are fine
	if _, err := PropagateDown(g, d, demand, ratio); err == nil {
		t.Error("NaN ratio accepted")
	}
}

func TestPropagateDownConservationQuick(t *testing.T) {
	// Property: total flow into the destination equals total demand, and
	// flow is conserved at every intermediate node.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(10)
		g, w := randomGraph(rng, n, rng.Intn(3*n))
		for i := range w {
			w[i] += 0.05
		}
		dst := rng.Intn(n)
		d, err := DownwardDAG(g, w, dst)
		if err != nil {
			t.Fatalf("DownwardDAG: %v", err)
		}
		ratio := make([]float64, g.NumLinks())
		for u := 0; u < n; u++ {
			outs := d.Out[u]
			if len(outs) == 0 {
				continue
			}
			// Random positive ratios normalized to 1.
			var sum float64
			for _, id := range outs {
				ratio[id] = 0.1 + rng.Float64()
				sum += ratio[id]
			}
			for _, id := range outs {
				ratio[id] /= sum
			}
		}
		demand := make([]float64, n)
		var total float64
		for s := 0; s < n; s++ {
			if s != dst && d.Dist[s] != Unreachable && rng.Intn(2) == 0 {
				demand[s] = rng.Float64() * 5
				total += demand[s]
			}
		}
		flow, err := PropagateDown(g, d, demand, ratio)
		if err != nil {
			t.Fatalf("trial %d: PropagateDown: %v", trial, err)
		}
		// Conservation at each node.
		for u := 0; u < n; u++ {
			var in, out float64
			for _, id := range g.InLinks(u) {
				in += flow[id]
			}
			for _, id := range g.OutLinks(u) {
				out += flow[id]
			}
			if u == dst {
				if math.Abs(in-total) > 1e-9 {
					t.Fatalf("trial %d: destination receives %v, want %v", trial, in, total)
				}
			} else if math.Abs(out-in-demand[u]) > 1e-9 {
				t.Fatalf("trial %d: node %d imbalance: out %v, in %v, demand %v", trial, u, out, in, demand[u])
			}
		}
	}
}
