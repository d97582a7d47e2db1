package graph

import (
	"math"
	"math/rand"
	"testing"
)

// TestWorkspaceKernelsBitIdentical proves the workspace-backed kernels
// compute exactly (bitwise) what their allocating counterparts compute,
// across random graphs, weights and destinations — including after the
// workspace has been refitted to other shapes (pool recycling).
func TestWorkspaceKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := &Workspace{}
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(14)
		g, w := randomGraph(rng, n, rng.Intn(3*n))
		ws.Reset(g)
		dst := rng.Intn(n)
		tol := 0.0
		if rng.Intn(2) == 1 {
			tol = rng.Float64()
		}

		spA, err := DijkstraTo(g, w, dst)
		if err != nil {
			t.Fatalf("trial %d: DijkstraTo: %v", trial, err)
		}
		spB, err := ws.DijkstraTo(g, w, dst)
		if err != nil {
			t.Fatalf("trial %d: ws.DijkstraTo: %v", trial, err)
		}
		for u := range spA.Dist {
			if spA.Dist[u] != spB.Dist[u] {
				t.Fatalf("trial %d: node %d: dist %v != %v", trial, u, spA.Dist[u], spB.Dist[u])
			}
		}

		bfA, err := BellmanFordTo(g, w, dst)
		if err != nil {
			t.Fatalf("trial %d: BellmanFordTo: %v", trial, err)
		}
		bfB, err := ws.BellmanFordTo(g, w, dst)
		if err != nil {
			t.Fatalf("trial %d: ws.BellmanFordTo: %v", trial, err)
		}
		for u := range bfA.Dist {
			if bfA.Dist[u] != bfB.Dist[u] {
				t.Fatalf("trial %d: node %d: BF dist %v != %v", trial, u, bfA.Dist[u], bfB.Dist[u])
			}
		}

		dagA, err := BuildDAG(g, w, dst, tol)
		if err != nil {
			t.Fatalf("trial %d: BuildDAG: %v", trial, err)
		}
		dagB, err := ws.BuildDAG(g, w, dst, tol)
		if err != nil {
			t.Fatalf("trial %d: ws.BuildDAG: %v", trial, err)
		}
		compareDAGs(t, trial, dagA, dagB)
		retained := dagB.Clone()

		downA, err := DownwardDAG(g, w, dst)
		if err != nil {
			t.Fatalf("trial %d: DownwardDAG: %v", trial, err)
		}
		downB, err := ws.DownwardDAG(g, w, dst)
		if err != nil {
			t.Fatalf("trial %d: ws.DownwardDAG: %v", trial, err)
		}
		compareDAGs(t, trial, downA, downB)

		// The clone must have survived the workspace being rebuilt for
		// the downward DAG.
		compareDAGs(t, trial, dagA, retained)

		cost := make([]float64, g.NumLinks())
		for i := range cost {
			cost[i] = rng.Float64() * 3
		}
		ratioA, logZA := ExponentialSplits(g, dagA, cost)
		ratioB, logZB := ws.ExponentialSplits(g, retained, cost)
		for i := range ratioA {
			if ratioA[i] != ratioB[i] {
				t.Fatalf("trial %d: link %d: ratio %v != %v", trial, i, ratioA[i], ratioB[i])
			}
		}
		for u := range logZA {
			if logZA[u] != logZB[u] {
				t.Fatalf("trial %d: node %d: logZ %v != %v", trial, u, logZA[u], logZB[u])
			}
		}

		demand := make([]float64, n)
		for s := 0; s < n; s++ {
			if s != dst && dagA.Dist[s] != Unreachable && rng.Intn(2) == 1 {
				demand[s] = rng.Float64() * 5
			}
		}
		flowA, err := PropagateDown(g, dagA, demand, ratioA)
		if err != nil {
			t.Fatalf("trial %d: PropagateDown: %v", trial, err)
		}
		flowB := make([]float64, g.NumLinks())
		if err := ws.PropagateDownInto(g, retained, demand, ratioB, flowB); err != nil {
			t.Fatalf("trial %d: PropagateDownInto: %v", trial, err)
		}
		for i := range flowA {
			if flowA[i] != flowB[i] {
				t.Fatalf("trial %d: link %d: flow %v != %v", trial, i, flowA[i], flowB[i])
			}
		}
	}
}

func compareDAGs(t *testing.T, trial int, a, b *DAG) {
	t.Helper()
	if err := dagDiff(b, a); err != nil {
		t.Fatalf("trial %d: %v", trial, err)
	}
}

// cernetLike builds a deterministic mid-size test graph with varied
// weights for the allocation regressions.
func allocSetup(t *testing.T) (*Graph, []float64, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g, w := randomGraph(rng, 24, 60)
	return g, w, 3
}

// measureAllocs runs fn through testing.AllocsPerRun (which performs
// one warm-up call, so the arena is sized before measurement starts).
func measureAllocs(fn func()) float64 {
	return testing.AllocsPerRun(50, fn)
}

// TestDijkstraSteadyStateZeroAllocs is the allocation regression for
// the Dijkstra kernel: after warm-up, Workspace.DijkstraTo allocates
// nothing.
func TestDijkstraSteadyStateZeroAllocs(t *testing.T) {
	g, w, dst := allocSetup(t)
	ws := NewWorkspace(g)
	if got := measureAllocs(func() {
		if _, err := ws.DijkstraTo(g, w, dst); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("ws.DijkstraTo allocates %v objects/op in steady state, want 0", got)
	}
}

// TestBellmanFordSteadyStateZeroAllocs covers the satellite fix: the
// Bellman-Ford cross-check reuses its distance buffer and early-exits
// on a settled pass.
func TestBellmanFordSteadyStateZeroAllocs(t *testing.T) {
	g, w, dst := allocSetup(t)
	ws := NewWorkspace(g)
	if got := measureAllocs(func() {
		if _, err := ws.BellmanFordTo(g, w, dst); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("ws.BellmanFordTo allocates %v objects/op in steady state, want 0", got)
	}
}

// TestBuildDAGSteadyStateZeroAllocs is the allocation regression for
// DAG extraction: the adjacency arena retains per-node capacity.
func TestBuildDAGSteadyStateZeroAllocs(t *testing.T) {
	g, w, dst := allocSetup(t)
	ws := NewWorkspace(g)
	if got := measureAllocs(func() {
		if _, err := ws.BuildDAG(g, w, dst, 0.2); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("ws.BuildDAG allocates %v objects/op in steady state, want 0", got)
	}
}

// TestPropagateSteadyStateZeroAllocs is the allocation regression for
// the propagation kernel (splits + flow push, the Algorithm 2 inner
// loop).
func TestPropagateSteadyStateZeroAllocs(t *testing.T) {
	g, w, dst := allocSetup(t)
	ws := NewWorkspace(g)
	dag, err := BuildDAG(g, w, dst, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cost := make([]float64, g.NumLinks())
	for i := range cost {
		cost[i] = float64(i%5) / 3
	}
	demand := make([]float64, g.NumNodes())
	for s := range demand {
		if s != dst && dag.Dist[s] != Unreachable {
			demand[s] = float64(s%4) + 1
		}
	}
	flow := make([]float64, g.NumLinks())
	if got := measureAllocs(func() {
		ratio, _ := ws.ExponentialSplits(g, dag, cost)
		if err := ws.PropagateDownInto(g, dag, demand, ratio, flow); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("splits+propagate allocate %v objects/op in steady state, want 0", got)
	}
}

// TestWorkspacePoolRefit proves a pooled workspace survives topology
// changes: kernels stay correct when the same workspace is bounced
// between differently-shaped graphs.
func TestWorkspacePoolRefit(t *testing.T) {
	var pool WorkspacePool
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(20)
		g, w := randomGraph(rng, n, rng.Intn(2*n))
		dst := rng.Intn(n)
		ws := pool.Get(g)
		got, err := ws.DijkstraTo(g, w, dst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := DijkstraTo(g, w, dst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for u := range want.Dist {
			if got.Dist[u] != want.Dist[u] {
				t.Fatalf("trial %d: node %d: %v != %v", trial, u, got.Dist[u], want.Dist[u])
			}
		}
		pool.Put(ws)
	}
}

// TestDAGCopyFrom: the storage-reusing copy must reproduce the source
// exactly — including the cached processing order, which must never go
// stale when the same destination arena is refilled with a different
// DAG (the incremental local-search usage pattern).
func TestDAGCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var arena DAG
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(14)
		g, w := randomGraph(rng, n, n+rng.Intn(3*n))
		src, err := BuildDAG(g, w, rng.Intn(n), 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		arena.CopyFrom(src)
		if arena.Dst != src.Dst || arena.Tol != src.Tol {
			t.Fatalf("trial %d: header mismatch", trial)
		}
		for u := range src.Dist {
			if arena.Dist[u] != src.Dist[u] {
				t.Fatalf("trial %d: dist[%d] %v != %v", trial, u, arena.Dist[u], src.Dist[u])
			}
			if len(arena.Out[u]) != len(src.Out[u]) {
				t.Fatalf("trial %d: adjacency size mismatch at node %d", trial, u)
			}
			for k := range src.Out[u] {
				if arena.Out[u][k] != src.Out[u][k] {
					t.Fatalf("trial %d: Out[%d][%d] mismatch", trial, u, k)
				}
			}
		}
		want := src.NodesDescending()
		got := arena.NodesDescending()
		if len(got) != len(want) {
			t.Fatalf("trial %d: order length %d != %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order[%d] %d != %d (stale cached order?)", trial, i, got[i], want[i])
			}
		}
	}
}

// improvingChain is the lazy heap's worst case: node u links to every
// v < u with weight (u-v) - v/(4k), so reverse Dijkstra toward node 0
// settles 0, 1, 2, ... and every settle strictly improves every higher
// node. Each link then pushes one entry: NumLinks+1 in all, far more
// than NumNodes.
func improvingChain(k int) (*Graph, []float64) {
	g := New(k)
	var w []float64
	for u := 1; u < k; u++ {
		for v := 0; v < u; v++ {
			if _, err := g.AddLink(u, v, 1); err != nil {
				panic(err)
			}
			w = append(w, float64(u-v)-float64(v)/float64(4*k))
		}
	}
	return g, w
}

type spInput struct {
	w   []float64
	dst int
}

// variedInputs returns a sequence of weight vectors and destinations on
// g: a light first input (every link masked, so only the destination
// settles), then the chain's worst case and random vectors with random
// destinations.
func variedInputs(g *Graph, chain []float64) []spInput {
	rng := rand.New(rand.NewSource(5))
	masked := make([]float64, g.NumLinks())
	for i := range masked {
		masked[i] = math.Inf(1)
	}
	in := []spInput{{masked, 0}, {chain, 0}}
	for i := 0; i < 8; i++ {
		w := make([]float64, g.NumLinks())
		for e := range w {
			w[e] = float64(rng.Intn(5))
		}
		in = append(in, spInput{w, rng.Intn(g.NumNodes())}, spInput{chain, rng.Intn(g.NumNodes())})
	}
	return in
}

// allocsAcross counts every allocation of one pass of seq after a
// single call of warm. testing.AllocsPerRun divides by the run count
// with integer division, which would round a one-off growth away.
func allocsAcross(warm, seq func()) float64 {
	warmed := false
	return testing.AllocsPerRun(1, func() {
		if !warmed {
			warmed = true
			warm()
			return
		}
		seq()
	})
}

// TestDijkstraZeroAllocsAcrossInputs pins the lazy heap's pre-sizing:
// after one light call, a sequence of different weight vectors and
// destinations — the worst case among them — allocates nothing. A heap
// sized like the indexed one (NumNodes entries) must fail this, which
// the test checks too, so the pin cannot pass vacuously.
func TestDijkstraZeroAllocsAcrossInputs(t *testing.T) {
	g, chain := improvingChain(24)
	inputs := variedInputs(g, chain)
	run := func(ws *Workspace) float64 {
		return allocsAcross(func() {
			if _, err := ws.DijkstraTo(g, inputs[0].w, inputs[0].dst); err != nil {
				t.Fatal(err)
			}
		}, func() {
			for _, in := range inputs {
				if _, err := ws.DijkstraTo(g, in.w, in.dst); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if got := run(NewWorkspace(g)); got != 0 {
		t.Fatalf("ws.DijkstraTo allocates %v objects over %d varied inputs, want 0", got, len(inputs))
	}
	undersized := NewWorkspace(g)
	undersized.heap.items = make([]pqItem, 0, g.NumNodes())
	if got := run(undersized); got == 0 {
		t.Fatal("a NumNodes-entry heap never grew: the inputs do not exercise the heap bound")
	}
}

// TestBuildDAGZeroAllocsAcrossInputs: once the DAG arena has held every
// DAG of the sequence (copied in, so the heap is not warmed with it),
// ws.BuildDAG over the varied sequence allocates nothing.
func TestBuildDAGZeroAllocsAcrossInputs(t *testing.T) {
	g, chain := improvingChain(24)
	inputs := variedInputs(g, chain)
	ws := NewWorkspace(g)
	for _, in := range inputs {
		d, err := BuildDAG(g, in.w, in.dst, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		ws.dag.CopyFrom(d)
	}
	if got := allocsAcross(func() {
		if _, err := ws.BuildDAG(g, inputs[0].w, inputs[0].dst, 0.5); err != nil {
			t.Fatal(err)
		}
	}, func() {
		for _, in := range inputs {
			if _, err := ws.BuildDAG(g, in.w, in.dst, 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}); got != 0 {
		t.Fatalf("ws.BuildDAG allocates %v objects over %d varied inputs, want 0", got, len(inputs))
	}
}
