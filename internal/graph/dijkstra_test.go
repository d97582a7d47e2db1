package graph

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDijkstraFig1(t *testing.T) {
	g := fig1(t)
	// Paper Table I, beta=1 first weights: w(1,3)=3, w(3,4)=10,
	// w(1,2)=w(2,3)=1.5. Both 1->3 paths are then equal cost (3 = 1.5+1.5).
	w := []float64{3, 10, 1.5, 1.5}
	sp, err := DijkstraTo(g, w, 2)
	if err != nil {
		t.Fatalf("DijkstraTo: %v", err)
	}
	want := []float64{3, 1.5, 0, Unreachable}
	for u, d := range want {
		if sp.Dist[u] != d {
			t.Errorf("Dist[%d] = %v, want %v", u, sp.Dist[u], d)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	mustLink(t, g, 0, 1, 1)
	sp, err := DijkstraTo(g, []float64{1}, 1)
	if err != nil {
		t.Fatalf("DijkstraTo: %v", err)
	}
	if sp.Dist[2] != Unreachable {
		t.Errorf("Dist[2] = %v, want Unreachable", sp.Dist[2])
	}
	if sp.Dist[0] != 1 {
		t.Errorf("Dist[0] = %v, want 1", sp.Dist[0])
	}
}

func TestDijkstraRejectsBadInput(t *testing.T) {
	g := fig1(t)
	if _, err := DijkstraTo(g, []float64{1, 2}, 0); !errors.Is(err, ErrBadWeights) {
		t.Errorf("short weights: err = %v, want ErrBadWeights", err)
	}
	if _, err := DijkstraTo(g, []float64{1, 1, 1, -1}, 0); !errors.Is(err, ErrBadWeights) {
		t.Errorf("negative weight: err = %v, want ErrBadWeights", err)
	}
	if _, err := DijkstraTo(g, []float64{1, 1, 1, math.NaN()}, 0); !errors.Is(err, ErrBadWeights) {
		t.Errorf("NaN weight: err = %v, want ErrBadWeights", err)
	}
	if _, err := DijkstraTo(g, []float64{1, 1, 1, 1}, 9); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestDijkstraZeroWeights(t *testing.T) {
	g := fig1(t)
	sp, err := DijkstraTo(g, make([]float64, 4), 3)
	if err != nil {
		t.Fatalf("DijkstraTo: %v", err)
	}
	for u := 0; u < 4; u++ {
		if sp.Dist[u] != 0 {
			t.Errorf("Dist[%d] = %v, want 0 under all-zero weights", u, sp.Dist[u])
		}
	}
}

// randomGraph builds a random strongly-connected-ish digraph: a directed
// ring guarantees reachability, plus extra random chords.
func randomGraph(rng *rand.Rand, n, extra int) (*Graph, []float64) {
	g := New(n)
	var weights []float64
	addLink := func(u, v int) {
		if u == v {
			return
		}
		if _, err := g.AddLink(u, v, 1+rng.Float64()*9); err == nil {
			weights = append(weights, rng.Float64()*10)
		}
	}
	for i := 0; i < n; i++ {
		addLink(i, (i+1)%n)
	}
	for i := 0; i < extra; i++ {
		addLink(rng.Intn(n), rng.Intn(n))
	}
	return g, weights
}

func TestDijkstraMatchesBellmanFordRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(14)
		g, w := randomGraph(rng, n, rng.Intn(3*n))
		dst := rng.Intn(n)
		dj, err := DijkstraTo(g, w, dst)
		if err != nil {
			t.Fatalf("trial %d: DijkstraTo: %v", trial, err)
		}
		bf, err := BellmanFordTo(g, w, dst)
		if err != nil {
			t.Fatalf("trial %d: BellmanFordTo: %v", trial, err)
		}
		for u := range dj.Dist {
			if math.Abs(dj.Dist[u]-bf.Dist[u]) > 1e-9 {
				t.Fatalf("trial %d: node %d: Dijkstra %v != BellmanFord %v", trial, u, dj.Dist[u], bf.Dist[u])
			}
		}
	}
}

func TestDijkstraTriangleInequalityQuick(t *testing.T) {
	// Property: for every link (u,v), dist[u] <= w_uv + dist[v].
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		g, w := randomGraph(rng, n, rng.Intn(2*n))
		dst := rng.Intn(n)
		sp, err := DijkstraTo(g, w, dst)
		if err != nil {
			return false
		}
		for _, l := range g.Links() {
			if sp.Dist[l.To] == Unreachable {
				continue
			}
			if sp.Dist[l.From] > w[l.ID]+sp.Dist[l.To]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestReachable(t *testing.T) {
	g := fig1(t)
	ok, err := Reachable(g, 3)
	if err != nil {
		t.Fatalf("Reachable: %v", err)
	}
	if !ok {
		t.Error("Reachable(fig1, node 4) = false, want true")
	}
	ok, err = Reachable(g, 0)
	if err != nil {
		t.Fatalf("Reachable: %v", err)
	}
	if ok {
		t.Error("Reachable(fig1, node 1) = true, want false (no link into 1)")
	}
	if _, err := Reachable(g, 4); err == nil {
		t.Error("Reachable(fig1, 4) accepted an out-of-range destination")
	}
}

// TestReachersMatchDijkstra checks Reachers against zero-weight
// Dijkstra on graphs where many nodes cannot reach the destination:
// reached marks exactly the nodes at a finite distance, and the
// returned queue lists each of them once, dst first. Each graph is
// searched whole and with a random link mask, which must act as +Inf
// weights on the masked links. The buffers are shared by every call,
// so a stale mark would show.
func TestReachersMatchDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reached, mask []bool
	var queue []int
	for c := 0; c < 300; c++ {
		g, _ := adversarialGraph(rng)
		reached = slices.Grow(reached[:0], g.NumNodes())[:g.NumNodes()]
		mask = slices.Grow(mask[:0], g.NumLinks())[:g.NumLinks()]
		w := make([]float64, g.NumLinks())
		for e := range mask {
			mask[e] = rng.Intn(4) == 0
			if mask[e] {
				w[e] = math.Inf(1)
			}
		}
		for dst := range g.NumNodes() {
			for _, down := range [][]bool{nil, mask} {
				weights := w
				if down == nil {
					weights = make([]float64, g.NumLinks())
				}
				sp, err := DijkstraTo(g, weights, dst)
				if err != nil {
					t.Fatal(err)
				}
				queue = g.Reachers(dst, down, reached, queue)
				if queue[0] != dst {
					t.Fatalf("case %d dst %d: queue starts at %d", c, dst, queue[0])
				}
				seen := make([]bool, g.NumNodes())
				for _, u := range queue {
					if seen[u] || !reached[u] {
						t.Fatalf("case %d dst %d: queue %v repeats %d or lists it unmarked", c, dst, queue, u)
					}
					seen[u] = true
				}
				for u, ok := range reached {
					if want := sp.Dist[u] != Unreachable; ok != want || seen[u] != want {
						t.Fatalf("case %d dst %d node %d (masked %v): reached %v, queued %v, want %v",
							c, dst, u, down != nil, ok, seen[u], want)
					}
				}
			}
		}
	}
}

// adversarialGraph builds a random digraph without randomGraph's
// connecting ring, so some nodes cannot reach a given destination, and
// draws weights that make exact distance ties common: small integers
// (zero included), +Inf masks as internal/ksp applies them, multiples
// of 0.1 (whose sums round, 0.1+0.2 != 0.3), and a few arbitrary reals.
func adversarialGraph(rng *rand.Rand) (*Graph, []float64) {
	n := 1 + rng.Intn(24)
	g := New(n)
	var w []float64
	for i, links := 0, rng.Intn(4*n+1); i < links; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if _, err := g.AddLink(u, v, 1); err != nil {
			panic(err)
		}
		switch r := rng.Intn(10); {
		case r < 6:
			w = append(w, float64(rng.Intn(4)))
		case r < 8:
			w = append(w, math.Inf(1))
		case r < 9:
			w = append(w, 0.1*float64(rng.Intn(4)))
		default:
			w = append(w, rng.Float64())
		}
	}
	return g, w
}

// TestSettleOrderMatchesHeapsortAdversarial pins the lazy-heap kernel's
// two contracts on inputs built to break them: its distances equal
// Bellman-Ford's bit for bit, and the node order every kernel derives
// from its settle order (DijkstraOrder, both DAG builders) equals the
// heapsort of the distances node for node.
func TestSettleOrderMatchesHeapsortAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ws := &Workspace{}
	var tieRuns, unreachable, masked int
	for trial := 0; trial < 3000; trial++ {
		g, w := adversarialGraph(rng)
		dst := rng.Intn(g.NumNodes())
		for _, x := range w {
			if math.IsInf(x, 1) {
				masked++
			}
		}
		bf, err := BellmanFordTo(g, w, dst)
		if err != nil {
			t.Fatal(err)
		}
		want := appendNodesDescending(nil, bf.Dist)
		sameOrder := func(what string, got []int) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: %s order %v, heapsort %v (dist %v)", trial, what, got, want, bf.Dist)
			}
		}

		sp, err := ws.DijkstraTo(g, w, dst)
		if err != nil {
			t.Fatal(err)
		}
		for u := range sp.Dist {
			if math.Float64bits(sp.Dist[u]) != math.Float64bits(bf.Dist[u]) {
				t.Fatalf("trial %d: node %d: Dijkstra %v, Bellman-Ford %v", trial, u, sp.Dist[u], bf.Dist[u])
			}
			if sp.Dist[u] == Unreachable {
				unreachable++
			}
		}
		if len(sp.settled) != len(want) {
			t.Fatalf("trial %d: %d nodes settled, %d reachable", trial, len(sp.settled), len(want))
		}
		for i := 1; i < len(sp.settled); i++ {
			a, b := sp.Dist[sp.settled[i-1]], sp.Dist[sp.settled[i]]
			if b < a {
				t.Fatalf("trial %d: settle order decreases at %d: %v after %v", trial, i, b, a)
			}
			if a == b {
				tieRuns++
			}
		}
		// DijkstraOrder lists the unreachable nodes first, by ID, then
		// the reachable ones in the heapsort's order.
		dist, order, err := ws.DijkstraOrder(g, w, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dist, bf.Dist) || len(order) != g.NumNodes() {
			t.Fatalf("trial %d: DijkstraOrder dist %v order %v, Bellman-Ford %v", trial, dist, order, bf.Dist)
		}
		unreach := len(order) - len(want)
		for i, u := range order[:unreach] {
			if bf.Dist[u] != Unreachable || i > 0 && u <= order[i-1] {
				t.Fatalf("trial %d: DijkstraOrder prefix %v is not the unreachable nodes by ID", trial, order[:unreach])
			}
		}
		sameOrder("DijkstraOrder", order[unreach:])

		tol := float64(rng.Intn(3)) / 2
		d, err := BuildDAG(g, w, dst, tol)
		if err != nil {
			t.Fatal(err)
		}
		sameOrder("BuildDAG", d.NodesDescending())
		if d, err = ws.BuildDAG(g, w, dst, tol); err != nil {
			t.Fatal(err)
		}
		sameOrder("ws.BuildDAG", d.NodesDescending())
		if d, err = DownwardDAG(g, w, dst); err != nil {
			t.Fatal(err)
		}
		sameOrder("DownwardDAG", d.NodesDescending())
		if d, err = ws.DownwardDAG(g, w, dst); err != nil {
			t.Fatal(err)
		}
		sameOrder("ws.DownwardDAG", d.NodesDescending())
	}
	// The generator must actually produce what the test is about.
	if tieRuns < 3000 || unreachable < 5000 || masked < 5000 {
		t.Fatalf("weak inputs: %d tied settles, %d unreachable nodes, %d masked links", tieRuns, unreachable, masked)
	}
}
