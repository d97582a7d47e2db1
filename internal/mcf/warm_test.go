package mcf

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// aonOracle is the all-or-nothing assignment as it was before passes
// were warm-started: per destination, in increasing order, the
// package-level Dijkstra (which checks the weights), a scan of the
// sources by ID for one that cannot reach the destination, the
// reachable nodes sorted by decreasing distance with ties by ID, and
// each node's first out-link within the 1e-12 slack as its next hop.
func aonOracle(g *graph.Graph, tm *traffic.Matrix, w []float64) (*Flow, error) {
	flow := NewFlow(g, tm.Destinations())
	for _, t := range flow.Destinations() {
		sp, err := graph.DijkstraTo(g, w, t)
		if err != nil {
			return nil, err
		}
		dist := sp.Dist
		for s := range g.NumNodes() {
			if tm.At(s, t) > 0 && dist[s] == graph.Unreachable {
				return nil, fmt.Errorf("%w: no path from %d to %d", ErrInfeasible, s, t)
			}
		}
		var order []int
		for u, d := range dist {
			if d != graph.Unreachable {
				order = append(order, u)
			}
		}
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(dist[b], dist[a]); c != 0 {
				return c
			}
			return a - b
		})
		ft, acc := flow.PerDest[t], make([]float64, g.NumNodes())
		for _, u := range order {
			amount := acc[u] + tm.At(u, t)
			if u == t || amount == 0 {
				continue
			}
			hop, v := -1, -1
			for _, id := range g.OutLinks(u) {
				if h := g.Link(id).To; dist[h] != graph.Unreachable && dist[h]+w[id] <= dist[u]+1e-12 {
					hop, v = id, h
					break
				}
			}
			if hop < 0 {
				return nil, fmt.Errorf("%w: stranded flow %v at node %d for destination %d", ErrInfeasible, amount, u, t)
			}
			if v != t && (dist[v] > dist[u] || dist[v] == dist[u] && v < u) {
				return nil, fmt.Errorf("%w: flow %v for destination %d would return from node %d to already-routed node %d (link weights below the 1e-12 next-hop slack)", ErrInfeasible, amount, t, u, v)
			}
			ft[hop] += amount
			acc[v] += amount
		}
	}
	flow.RecomputeTotal()
	return flow, nil
}

// passCounts tallies commodity passes by the path they take: warm (the
// kept order held), fallback (a kept order was stale, so Dijkstra ran)
// and first (no kept order).
type passCounts struct{ warm, fallback, first int }

// predict adds the paths the next AllOrNothingInto(g, tm, w, flow)
// call takes. It runs the call's own warmDist and assign on copies of
// the kept orders, so flow is left as it was.
func (c *passCounts) predict(g *graph.Graph, tm *traffic.Matrix, w []float64, flow *Flow) {
	if graph.CheckWeights(g, w) != nil {
		return
	}
	dests := tm.Destinations()
	if flow == nil || flow.tab == nil || len(flow.tab.orders) != len(dests) {
		c.first += len(dests)
		return
	}
	dist, acc := make([]float64, g.NumNodes()), make([]float64, g.NumNodes())
	ft := make([]float64, g.NumLinks())
	for i, t := range dests {
		if len(flow.tab.orders[i]) != g.NumNodes() {
			c.first++
			continue
		}
		order := slices.Clone(flow.tab.orders[i])
		warmDist(g, w, t, order, dist)
		if assign(g, tm, w, dist, t, order, ft, acc) == nil {
			c.warm++
		} else {
			c.fallback++
		}
	}
}

// sameResult reports how two all-or-nothing results differ: in
// whether or with what text they failed, or in any bit of Total or a
// commodity. It returns "" when they are the same.
func sameResult(got *Flow, gotErr error, want *Flow, wantErr error) string {
	switch {
	case gotErr != nil || wantErr != nil:
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
		}
		return ""
	case len(got.PerDest) != len(want.PerDest):
		return fmt.Sprintf("%d commodities, want %d", len(got.PerDest), len(want.PerDest))
	}
	if e := firstBitDiff(got.Total, want.Total); e >= 0 {
		return fmt.Sprintf("Total[%d] = %v, want %v", e, got.Total[e], want.Total[e])
	}
	for d, v := range want.PerDest {
		if e := firstBitDiff(got.PerDest[d], v); e >= 0 {
			return fmt.Sprintf("commodity %d link %d = %v, want %v", d, e, got.PerDest[d][e], v[e])
		}
	}
	return ""
}

// firstBitDiff returns the first index where a and b differ in their
// bits, or -1.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// warmEqualsFresh runs one pass into the reused flow and one into a
// fresh flow and requires the same result bit for bit, and the fresh
// pass to equal the oracle's. It returns the reused flow to carry on.
func warmEqualsFresh(t *testing.T, label string, g *graph.Graph, tm *traffic.Matrix, w []float64, flow *Flow, counts *passCounts) *Flow {
	t.Helper()
	counts.predict(g, tm, w, flow)
	got, gotErr := AllOrNothingInto(g, tm, w, flow)
	fresh, freshErr := AllOrNothingInto(g, tm, w, nil)
	if d := sameResult(got, gotErr, fresh, freshErr); d != "" {
		t.Fatalf("%s: reused flow: %s", label, d)
	}
	want, wantErr := aonOracle(g, tm, w)
	if d := sameResult(fresh, freshErr, want, wantErr); d != "" {
		t.Fatalf("%s: fresh flow against the oracle: %s", label, d)
	}
	if got != nil {
		return got
	}
	return flow
}

// drawWeight draws a weight from a mix built to stress the warm path:
// zero, +Inf (a masked link), small integers (exact ties), weights
// below the 1e-12 next-hop slack and generic values.
func drawWeight(rng *rand.Rand) float64 {
	switch r := rng.Intn(10); {
	case r == 0:
		return 0
	case r == 1:
		return math.Inf(1)
	case r < 5:
		return float64(1 + rng.Intn(3))
	case r < 6:
		return 0.5 * float64(rng.Intn(4))
	case r < 7:
		return 1e-13 * (1 + rng.Float64())
	default:
		return 0.01 + rng.Float64()
	}
}

// genericWeight draws a weight from [0.1, 1.1).
func genericWeight(rng *rand.Rand) float64 { return 0.1 + rng.Float64() }

// stepWeights moves w in place: mostly a small relative step on every
// finite weight, as a subgradient or Frank-Wolfe iteration makes, and
// sometimes a jump of one link or of all of them to weights drawn by
// draw.
func stepWeights(rng *rand.Rand, w []float64, draw func(*rand.Rand) float64) {
	switch rng.Intn(8) {
	case 0:
		for e := range w {
			w[e] = draw(rng)
		}
	case 1:
		w[rng.Intn(len(w))] = draw(rng)
	default:
		for e, x := range w {
			if !math.IsInf(x, 0) {
				w[e] = x * (1 + 1e-3*(rng.Float64()-0.5))
			}
		}
	}
}

// adversarialCase draws a small graph with parallel and one-way links,
// so some nodes cannot reach some destinations, and demands between
// random pairs, some of them unroutable.
func adversarialCase(t testing.TB, rng *rand.Rand) (*graph.Graph, *traffic.Matrix) {
	n := 3 + rng.Intn(8)
	g := graph.New(n)
	for range n + rng.Intn(3*n) {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		for range 1 + rng.Intn(2) {
			if _, err := g.AddLink(a, b, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	tm := traffic.NewMatrix(n)
	for s := range n {
		for d := range n {
			if s != d && rng.Intn(3) == 0 {
				if err := tm.Set(s, d, []float64{0.1, 0.7, 1, 3}[rng.Intn(4)]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g, tm
}

// staleReturnCase returns the graph and demand of the stale-return
// sequence: links u->t, u->w, w->t, v->u, x->v, x->y, y->t for nodes
// t, u, w, v, x, y = 0 to 5, and one unit from x to t.
func staleReturnCase(t *testing.T) (*graph.Graph, *traffic.Matrix) {
	g := graph.New(6)
	for _, l := range [][2]int{{1, 0}, {1, 2}, {2, 0}, {3, 1}, {4, 3}, {4, 5}, {5, 0}} {
		if _, err := g.AddLink(l[0], l[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	tm := traffic.NewMatrix(6)
	if err := tm.Set(4, 0, 1); err != nil {
		t.Fatal(err)
	}
	return g, tm
}

// allPairs returns demands between every ordered pair of g's nodes.
func allPairs(t testing.TB, rng *rand.Rand, g *graph.Graph) *traffic.Matrix {
	tm := traffic.NewMatrix(g.NumNodes())
	for s := range g.NumNodes() {
		for d := range g.NumNodes() {
			if s != d {
				if err := tm.Set(s, d, 0.1+rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return tm
}

// TestAllOrNothingWarmEqualsFresh runs sequences of weight vectors
// through one reused flow and requires, after every pass, the result
// of a fresh flow bit for bit: Total, every commodity, and the error
// with its text. The fresh flow must equal aonOracle, the assignment
// before warm starts. The sequences mix small relative steps, which
// keep a commodity's order, with jumps that reorder nodes; the graphs
// have parallel links, exact ties, zero weights, +Inf-masked links,
// unreachable nodes and weights down to 1e-16.
func TestAllOrNothingWarmEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var counts passCounts
	// A stale order whose warm distances send flow back before the
	// walk reaches the undercut link: under the second vector, node 2
	// (w) drops from 100 to 0.1, which node 1 (u) cannot see along the
	// kept order. Nodes 3 and 4 then sit 1e-13 apart, and 4's first
	// out-link, of weight 1e-13, would send 4's flow back to 3. A fresh
	// pass routes it through 3, 1 and 2 without error.
	g, tm := staleReturnCase(t)
	flow := NewFlow(g, tm.Destinations())
	for i, w := range [][]float64{{5, 1, 100, 1, 1e-13, 0.1 - 1e-13, 5.9}, {5, 1, 0.1, 1, 1e-13, 0.1 - 1e-13, 5.9}} {
		flow = warmEqualsFresh(t, fmt.Sprintf("stale return, pass %d", i), g, tm, w, flow, &counts)
	}
	if counts.fallback != 1 {
		t.Fatalf("stale return: %+v, want the second pass to fall back", counts)
	}
	counts = passCounts{}
	// Small adversarial graphs.
	for trial := range 300 {
		g, tm := adversarialCase(t, rng)
		if g.NumLinks() == 0 {
			continue
		}
		w := make([]float64, g.NumLinks())
		for e := range w {
			w[e] = drawWeight(rng)
		}
		flow := NewFlow(g, tm.Destinations())
		for step := range 12 {
			flow = warmEqualsFresh(t, fmt.Sprintf("adversarial trial %d step %d", trial, step), g, tm, w, flow, &counts)
			stepWeights(rng, w, drawWeight)
		}
	}
	t.Logf("adversarial graphs: %+v", counts)
	if counts.warm == 0 || counts.fallback == 0 {
		t.Errorf("adversarial graphs: weak coverage: %+v", counts)
	}

	// Random networks under generic weights: most passes stay warm.
	counts = passCounts{}
	for trial := range 20 {
		n := 5 + rng.Intn(16)
		g, err := topo.Random(rng.Int63(), n, 2*(n-1)+2*rng.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		tm := allPairs(t, rng, g)
		w := make([]float64, g.NumLinks())
		for e := range w {
			w[e] = genericWeight(rng)
		}
		flow := NewFlow(g, tm.Destinations())
		for step := range 15 {
			flow = warmEqualsFresh(t, fmt.Sprintf("random trial %d step %d", trial, step), g, tm, w, flow, &counts)
			stepWeights(rng, w, genericWeight)
		}
	}
	t.Logf("random networks: %+v", counts)
	if counts.warm < 4*counts.fallback || counts.fallback == 0 {
		t.Errorf("random networks: weak coverage: %+v", counts)
	}

	// Cernet2 with the weights scaled from 1 down to 1e-16, as in
	// TestAllOrNothingTinyWeightsConserveOrFail: below the 1e-12 slack
	// the passes start to fail. Each scale starts from a new draw, so
	// the kept orders are stale, and takes small steps from it.
	counts = passCounts{}
	g = topo.Cernet2()
	tm = allPairs(t, rng, g)
	flow = NewFlow(g, tm.Destinations())
	w := make([]float64, g.NumLinks())
	for exp := 0; exp <= 16; exp++ {
		for e := range w {
			w[e] = (1 + rng.Float64()) * math.Pow(10, -float64(exp))
		}
		for step := range 3 {
			flow = warmEqualsFresh(t, fmt.Sprintf("cernet2 scale 1e-%d step %d", exp, step), g, tm, w, flow, &counts)
			for e := range w {
				w[e] *= 1 + 1e-4*(rng.Float64()-0.5)
			}
		}
	}
	t.Logf("cernet2: %+v", counts)
	if counts.warm == 0 || counts.fallback == 0 {
		t.Errorf("cernet2: weak coverage: %+v", counts)
	}
}

// TestAllOrNothingWarmAcrossReuse covers the ways a kept order can
// come from elsewhere: a flow alternated between two graphs of the
// same shape, a flow whose vectors were overwritten between passes,
// and two clones of a warm flow used concurrently (run it under -race).
func TestAllOrNothingWarmAcrossReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g1, err := topo.Random(1, 14, 44)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := topo.Random(2, 14, 44)
	if err != nil {
		t.Fatal(err)
	}
	tm := allPairs(t, rng, g1)
	w := make([]float64, g1.NumLinks())
	for e := range w {
		w[e] = 0.1 + rng.Float64()
	}
	var counts passCounts
	flow := NewFlow(g1, tm.Destinations())
	for step := range 24 {
		g := g1
		if step%4 >= 2 {
			g = g2
		}
		flow = warmEqualsFresh(t, fmt.Sprintf("two graphs step %d", step), g, tm, w, flow, &counts)
		for _, v := range flow.PerDest {
			for e := range v {
				v[e] = math.NaN()
			}
		}
		flow.Total[0] = -1
		if step%3 == 2 {
			stepWeights(rng, w, genericWeight)
		}
	}
	if counts.warm == 0 || counts.fallback == 0 {
		t.Errorf("weak coverage: %d warm passes, %d fall-backs", counts.warm, counts.fallback)
	}

	// Each clone runs its own sequence; the results must equal fresh
	// passes, computed afterwards.
	seqs := make([][][]float64, 2)
	for k := range seqs {
		for range 10 {
			stepWeights(rng, w, genericWeight)
			seqs[k] = append(seqs[k], slices.Clone(w))
		}
	}
	got := make([][]*Flow, 2)
	gotErr := make([][]error, 2)
	var wg sync.WaitGroup
	for k := range seqs {
		c := flow.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, w := range seqs[k] {
				f, err := AllOrNothingInto(g2, tm, w, c)
				if f != nil {
					f = f.Clone()
				}
				got[k], gotErr[k] = append(got[k], f), append(gotErr[k], err)
			}
		}()
	}
	wg.Wait()
	for k, seq := range seqs {
		for i, w := range seq {
			fresh, err := AllOrNothing(g2, tm, w)
			if d := sameResult(got[k][i], gotErr[k][i], fresh, err); d != "" {
				t.Errorf("clone %d pass %d: %s", k, i, d)
			}
		}
	}
}

// FuzzAllOrNothingWarm decodes a small graph, a demand matrix and a
// sequence of weight vectors and runs the sequence through one reused
// flow, requiring after every pass what TestAllOrNothingWarmEqualsFresh
// requires: the fresh flow's result bit for bit, and the oracle's.
func FuzzAllOrNothingWarm(f *testing.F) {
	f.Add([]byte{4, 8, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 1, 3, 2, 0, 3, 1, 4, 0, 2, 9, 1, 3, 17, 2, 1, 40, 40, 40, 40, 40, 40, 40, 40, 1, 200, 0, 3, 1, 1, 60, 2, 0})
	f.Add([]byte{3, 6, 0, 1, 1, 0, 1, 2, 2, 1, 0, 2, 2, 0, 2, 0, 2, 9, 1, 0, 3, 0, 8, 16, 0, 24, 32, 1, 1, 127, 2, 2, 2, 2, 0, 5, 1})
	f.Add([]byte{6, 12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 2, 2, 4, 1, 3, 3, 5, 5, 1, 0, 3, 3, 0, 5, 0, 1, 3, 2, 4, 17, 33, 49, 65, 81, 97, 113, 129, 145, 161, 177, 193, 1, 129, 1, 130, 2, 2, 2, 2, 0, 3, 0, 3, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, tm, seq := decodeWarmCase(t, data)
		if g == nil {
			return
		}
		var counts passCounts
		flow := NewFlow(g, tm.Destinations())
		for i, w := range seq {
			flow = warmEqualsFresh(t, fmt.Sprintf("pass %d", i), g, tm, w, flow, &counts)
		}
	})
}

// decodeWarmCase reads a graph of 2 to 8 nodes and up to 23 links,
// demands between up to 11 pairs, and up to 16 weight vectors, each
// the last one moved by one decoded step. It returns a nil graph when
// data is too short.
func decodeWarmCase(t *testing.T, data []byte) (*graph.Graph, *traffic.Matrix, [][]float64) {
	next := func() (int, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return int(b), true
	}
	b, ok := next()
	if !ok {
		return nil, nil, nil
	}
	n := 2 + b%7
	g := graph.New(n)
	links, _ := next()
	for range links % 24 {
		a, ok1 := next()
		z, ok2 := next()
		if !ok1 || !ok2 {
			return nil, nil, nil
		}
		a, z = a%n, z%n
		if a == z {
			z = (a + 1) % n
		}
		if _, err := g.AddLink(a, z, 1); err != nil {
			t.Fatal(err)
		}
	}
	if g.NumLinks() == 0 {
		return nil, nil, nil
	}
	tm := traffic.NewMatrix(n)
	pairs, _ := next()
	for range pairs % 12 {
		s, _ := next()
		d, _ := next()
		v, _ := next()
		if s%n != d%n {
			if err := tm.Set(s%n, d%n, []float64{0.1, 0.7, 1, 3}[v%4]); err != nil {
				t.Fatal(err)
			}
		}
	}
	weight := func(b int) float64 {
		switch b % 8 {
		case 0:
			return 0
		case 1:
			return math.Inf(1)
		case 2, 3:
			return float64(b/8%3 + 1)
		case 4:
			return float64(b) / 64
		case 5:
			return float64(b) * 1e-14
		default:
			return 0.25 * float64(b/8%4+1)
		}
	}
	w := make([]float64, g.NumLinks())
	for e := range w {
		b, _ := next()
		w[e] = weight(b)
	}
	seq := [][]float64{slices.Clone(w)}
	for len(seq) < 16 {
		op, ok := next()
		if !ok {
			break
		}
		arg, _ := next()
		switch op % 4 {
		case 0: // one link jumps
			e, _ := next()
			w[e%len(w)] = weight(arg)
		case 1: // a small relative step on every weight
			for e := range w {
				w[e] *= 1 + float64(arg-128)*1e-6
			}
		case 2: // one link moves a little
			w[arg%len(w)] *= 1 + 1e-9*float64(op)
		default: // every weight shrinks toward the 1e-12 slack
			for e := range w {
				w[e] *= 1e-4
			}
		}
		seq = append(seq, slices.Clone(w))
	}
	return g, tm, seq
}
