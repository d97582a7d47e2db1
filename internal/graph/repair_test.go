package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// repairCase is one input of the repair tests: a graph, a destination
// and tolerance, a starting weight vector, and a sequence of weight
// events, each giving links[k] the weight w[k].
type repairCase struct {
	g      *Graph
	dst    int
	tol    float64
	w      []float64
	events []repairEvent
}

type repairEvent struct {
	links []int
	w     []float64
}

// repairTols are the tolerances a case byte selects.
var repairTols = [...]float64{0, 1, 0.5}

// repairWeight decodes one weight byte: 0, +Inf, an integer 1..4, or a
// multiple of 1/7 (whose sums round).
func repairWeight(b byte) float64 {
	switch c := b % 8; c {
	case 0:
		return 0
	case 1:
		return math.Inf(1)
	case 6, 7:
		return float64(b>>3) / 7
	default:
		return float64(c - 1)
	}
}

// Weight bytes for the family generators.
const (
	wZero byte = 0
	wInf  byte = 1
)

func wInt(k int) byte { return byte(k + 1) } // k in 1..4

// decodeRepairCase reads a case from bytes: node count, destination,
// tolerance and link count; each link's two endpoint bytes; each link's
// weight byte; then events of one count byte (1 to 3 links) and a link
// and a weight byte per link, a link listed twice keeping its first
// entry. It reports false when the bytes end before the weights do.
func decodeRepairCase(data []byte) (repairCase, bool) {
	if len(data) < 4 {
		return repairCase{}, false
	}
	n := 2 + int(data[0])%9
	c := repairCase{g: New(n), dst: int(data[1]) % n, tol: repairTols[int(data[2])%len(repairTols)]}
	m := int(data[3]) % 32
	data = data[4:]
	if len(data) < 3*m {
		return repairCase{}, false
	}
	for k := 0; k < m; k++ {
		from := int(data[2*k]) % n
		to := (from + 1 + int(data[2*k+1])%(n-1)) % n
		if _, err := c.g.AddLink(from, to, 1); err != nil {
			panic(err)
		}
	}
	for _, b := range data[2*m : 3*m] {
		c.w = append(c.w, repairWeight(b))
	}
	data = data[3*m:]
	for len(data) > 0 && len(c.events) < 32 && m > 0 {
		cnt := 1 + int(data[0])%3
		data = data[1:]
		var ev repairEvent
		for ; cnt > 0 && len(data) >= 2; cnt-- {
			e := int(data[0]) % m
			if !slices.Contains(ev.links, e) {
				ev.links = append(ev.links, e)
				ev.w = append(ev.w, repairWeight(data[1]))
			}
			data = data[2:]
		}
		if len(ev.links) > 0 {
			c.events = append(c.events, ev)
		}
	}
	return c, true
}

// repairInput is the structured form a family generator fills and
// encodes into decodeRepairCase's bytes.
type repairInput struct {
	n, dst, tol int
	links       [][2]int
	w           []byte
	events      [][][2]byte // per event, (link, weight byte) pairs
}

func (in *repairInput) link(from, to int, w byte) {
	in.links = append(in.links, [2]int{from, to})
	in.w = append(in.w, w)
}

func (in *repairInput) bytes() []byte {
	b := []byte{byte(in.n - 2), byte(in.dst), byte(in.tol), byte(len(in.links))}
	for _, l := range in.links {
		b = append(b, byte(l[0]), byte((l[1]-l[0]-1+in.n)%in.n))
	}
	b = append(b, in.w...)
	for _, ev := range in.events {
		b = append(b, byte(len(ev)-1))
		for _, p := range ev {
			b = append(b, p[0], p[1])
		}
	}
	return b
}

// repairFamilies generate the adversarial inputs of the repair tests.
// Each draws a random graph on 4..10 nodes and a sequence of 1..3-link
// events from rng; they differ in the weights and the events.
var repairFamilies = []struct {
	name string
	gen  func(rng *rand.Rand) []byte
}{
	// Integer weights 1..3: many equal-cost ties, which the order's ID
	// tie-break and the DAG's multi-parent sets must repair exactly.
	{"ties", func(rng *rand.Rand) []byte {
		return randomInput(rng, func() byte { return wInt(1 + rng.Intn(3)) }, 1+rng.Intn(2))
	}},
	// Zero weights, with zero-weight cycles between equidistant nodes
	// and a zero-weight link into the destination: links the DAG leaves
	// out that still carry shortest paths.
	{"zero", func(rng *rand.Rand) []byte {
		return zeroCycles(rng, randomInput(rng, func() byte {
			if rng.Intn(3) == 0 {
				return wZero
			}
			return wInt(1 + rng.Intn(3))
		}, 1+rng.Intn(2)))
	}},
	// +Inf weights: failed links, pushed and restored.
	{"inf", func(rng *rand.Rand) []byte {
		return randomInput(rng, func() byte {
			if rng.Intn(3) == 0 {
				return wInf
			}
			return wInt(1 + rng.Intn(4))
		}, 1)
	}},
	// Sparse graphs whose events fail and restore links, so nodes lose
	// reachability and regain it.
	{"reach", func(rng *rand.Rand) []byte {
		n := 4 + rng.Intn(7)
		in := repairInput{n: n, dst: rng.Intn(n), tol: rng.Intn(len(repairTols))}
		for u := 0; u < n; u++ {
			in.link(u, (u+1)%n, wInt(1+rng.Intn(4)))
		}
		for k := rng.Intn(n / 2); k > 0; k-- {
			in.link(rng.Intn(n), rng.Intn(n), wInt(1+rng.Intn(4)))
		}
		in.dropSelfLoops()
		for e := 24; e > 0; e-- {
			l := byte(rng.Intn(len(in.links)))
			w := wInf
			if rng.Intn(2) == 0 {
				w = wInt(1 + rng.Intn(4))
			}
			in.events = append(in.events, [][2]byte{{l, w}})
		}
		return in.bytes()
	}},
	// Multi-link events that raise some links and lower others, with
	// weights in sevenths so sums round.
	{"multi", func(rng *rand.Rand) []byte {
		return randomInput(rng, func() byte {
			if rng.Intn(2) == 0 {
				return byte(rng.Intn(32)<<3 | 6)
			}
			return wInt(1 + rng.Intn(4))
		}, 3)
	}},
}

// randomInput draws a graph with a ring (so most nodes reach the
// destination) and random chords, weights from weight, and 24 events
// of up to maxLinks links each.
func randomInput(rng *rand.Rand, weight func() byte, maxLinks int) []byte {
	n := 4 + rng.Intn(7)
	in := repairInput{n: n, dst: rng.Intn(n), tol: rng.Intn(len(repairTols))}
	for u := 0; u < n; u++ {
		in.link(u, (u+1)%n, weight())
	}
	for k := n + rng.Intn(2*n); k > 0 && len(in.links) < 31; k-- {
		in.link(rng.Intn(n), rng.Intn(n), weight())
	}
	in.dropSelfLoops()
	for e := 24; e > 0; e-- {
		var ev [][2]byte
		for k := 1 + rng.Intn(maxLinks); k > 0; k-- {
			ev = append(ev, [2]byte{byte(rng.Intn(len(in.links))), weight()})
		}
		in.events = append(in.events, ev)
	}
	return in.bytes()
}

// zeroCycles rewrites the last five links of an encoded randomInput
// (chords, past its ring) so that two node pairs carry zero-weight
// links both ways and one link enters the destination at weight zero.
func zeroCycles(rng *rand.Rand, b []byte) []byte {
	n, dst, m := 2+int(b[0])%9, int(b[1]), int(b[3])
	links, weights := b[4:4+2*m], b[4+2*m:4+3*m]
	set := func(k, from, to int) {
		links[2*k], links[2*k+1] = byte(from), byte((to-from-1+n)%n)
		weights[k] = wZero
	}
	for k := m - 1; k >= m-4 && k >= n+1; k -= 2 {
		a := rng.Intn(n)
		c := (a + 1 + rng.Intn(n-1)) % n
		set(k, a, c)
		set(k-1, c, a)
	}
	if m-5 >= n {
		set(m-5, (dst+1+rng.Intn(n-1))%n, dst)
	}
	return b
}

// dropSelfLoops removes the chords a generator drew from a node to
// itself (the encoding cannot express them), keeping weights aligned.
func (in *repairInput) dropSelfLoops() {
	links, w := in.links[:0], in.w[:0]
	for k, l := range in.links {
		if l[0] != l[1] {
			links = append(links, l)
			w = append(w, in.w[k])
		}
	}
	in.links, in.w = links, w
}

// dagDiff compares two DAGs bitwise: destination and tolerance, every
// distance's bits, every Out list, and the cached node order.
func dagDiff(got, want *DAG) error {
	if got.Dst != want.Dst || got.Tol != want.Tol {
		return fmt.Errorf("header (dst %d, tol %v), want (%d, %v)", got.Dst, got.Tol, want.Dst, want.Tol)
	}
	for u := range want.Dist {
		if math.Float64bits(got.Dist[u]) != math.Float64bits(want.Dist[u]) {
			return fmt.Errorf("node %d: dist %v, want %v", u, got.Dist[u], want.Dist[u])
		}
		if !slices.Equal(got.Out[u], want.Out[u]) {
			return fmt.Errorf("node %d: out-links %v, want %v", u, got.Out[u], want.Out[u])
		}
	}
	if a, b := got.NodesDescending(), want.NodesDescending(); !slices.Equal(a, b) {
		return fmt.Errorf("node order %v, want %v", a, b)
	}
	return nil
}

// repairStats counts the events of a run that moved a distance and
// that changed which nodes reach the destination.
type repairStats struct{ moved, reach int }

// checkRepairCase applies c's events one by one, repairing one DAG on
// ws, and requires after each that it equals BuildDAG under the new
// weights bitwise and that RepairDAG counted the distances that moved.
func checkRepairCase(t *testing.T, ws *Workspace, c repairCase) (st repairStats) {
	t.Helper()
	d, err := BuildDAG(c.g, c.w, c.dst, c.tol)
	if err != nil {
		t.Fatal(err)
	}
	w := slices.Clone(c.w)
	for k, ev := range c.events {
		old := make([]float64, len(ev.links))
		for j, e := range ev.links {
			old[j], w[e] = w[e], ev.w[j]
		}
		before := slices.Clone(d.Dist)
		moved, err := ws.RepairDAG(c.g, w, d, ev.links, old)
		if err != nil {
			t.Fatalf("event %d: RepairDAG: %v", k, err)
		}
		want, err := BuildDAG(c.g, w, c.dst, c.tol)
		if err != nil {
			t.Fatal(err)
		}
		if err := dagDiff(d, want); err != nil {
			t.Fatalf("event %d (links %v: %v -> %v, dst %d, tol %v): repaired DAG differs from BuildDAG: %v",
				k, ev.links, old, ev.w, c.dst, c.tol, err)
		}
		wantMoved, reach := 0, false
		for u := range before {
			if before[u] != want.Dist[u] {
				wantMoved++
				reach = reach || before[u] == Unreachable || want.Dist[u] == Unreachable
			}
		}
		if moved != wantMoved {
			t.Fatalf("event %d: RepairDAG reports %d moved distances, %d moved", k, moved, wantMoved)
		}
		if moved > 0 {
			st.moved++
		}
		if reach {
			st.reach++
		}
	}
	return st
}

// TestRepairDAGMatchesBuildDAG: across every adversarial family, a DAG
// repaired after each random weight event equals BuildDAG under the new
// weights bit for bit, with one workspace serving every graph shape.
func TestRepairDAGMatchesBuildDAG(t *testing.T) {
	ws := &Workspace{}
	for _, fam := range repairFamilies {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var total repairStats
			for trial := 0; trial < 150; trial++ {
				c, ok := decodeRepairCase(fam.gen(rng))
				if !ok {
					t.Fatalf("trial %d: generated input does not decode", trial)
				}
				if len(c.events) != 24 {
					t.Fatalf("trial %d: decoded %d events, generated 24", trial, len(c.events))
				}
				st := checkRepairCase(t, ws, c)
				total.moved += st.moved
				total.reach += st.reach
			}
			t.Logf("%d of %d events moved a distance, %d changed reachability", total.moved, 150*24, total.reach)
			if total.moved == 0 || (fam.name == "reach" && total.reach == 0) {
				t.Fatalf("the family exercises nothing: %+v", total)
			}
		})
	}
}

// routableDemand draws a demand vector toward d's destination: each
// node other than the destination carries a positive volume with
// probability 1/2 if every DAG path from it ends at the destination —
// no node on the way lacks out-links — and nothing otherwise, so
// propagation over d cannot fail.
func routableDemand(rng *rand.Rand, g *Graph, d *DAG) []float64 {
	n := g.NumNodes()
	ok := make([]int8, n) // 0 unknown, 1 routable, -1 not
	var routable func(u int) bool
	routable = func(u int) bool {
		if ok[u] == 0 {
			ok[u] = -1
			if u == d.Dst || (d.Dist[u] != Unreachable && len(d.Out[u]) > 0) {
				ok[u] = 1
				for _, id := range d.Out[u] {
					if !routable(g.links[id].To) {
						ok[u] = -1
					}
				}
			}
		}
		return ok[u] == 1
	}
	demand := make([]float64, n)
	for s := range demand {
		if s != d.Dst && routable(s) && rng.Intn(2) == 0 {
			demand[s] = float64(1+rng.Intn(20)) / 7
		}
	}
	return demand
}

// propagates reports whether demand propagates over d without error.
func propagates(g *Graph, d *DAG, demand []float64) bool {
	ratio := make([]float64, g.NumLinks())
	EvenSplitsInto(g, d, ratio)
	_, err := PropagateDown(g, d, demand, ratio)
	return err == nil
}

// TestInPlacePropagationAfterRepair: across the RepairDAG families,
// Workspace.OutChanged lists exactly the nodes whose Out list a repair
// changed, a repair that reports FlowsKept leaves the propagation of an
// unchanged demand bit for bit as it was, and a split and flow row kept
// in place through every event —
// the DAG repaired, those nodes re-split (EvenSplitsAt) and the flow
// re-propagated over the old row (PropagateDownMarked) — equals
// EvenSplitsInto and zero-then-propagate (PropagateDownInto) on the
// repaired DAG bit for bit, and the marks are exactly the links whose
// flow bits changed. Half the events also draw a new demand vector.
func TestInPlacePropagationAfterRepair(t *testing.T) {
	ws := &Workspace{}
	for _, fam := range repairFamilies {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			events, marked, keptMoved := 0, 0, 0
			for trial := 0; trial < 150; trial++ {
				c, ok := decodeRepairCase(fam.gen(rng))
				if !ok {
					t.Fatalf("trial %d: generated input does not decode", trial)
				}
				d, err := BuildDAG(c.g, c.w, c.dst, c.tol)
				if err != nil {
					t.Fatal(err)
				}
				m := c.g.NumLinks()
				w := slices.Clone(c.w)
				demand := routableDemand(rng, c.g, d)
				ratio, flow := make([]float64, m), make([]float64, m)
				wantRatio, wantFlow := make([]float64, m), make([]float64, m)
				EvenSplitsInto(c.g, d, ratio)
				if err := ws.PropagateDownInto(c.g, d, demand, ratio, flow); err != nil {
					t.Fatal(err)
				}
				var marks Marks
				marks.Reset(m)
				for k, ev := range c.events {
					old := make([]float64, len(ev.links))
					for j, e := range ev.links {
						old[j], w[e] = w[e], ev.w[j]
					}
					outs := make([][]int, len(d.Out))
					for u := range outs {
						outs[u] = slices.Clone(d.Out[u])
					}
					moved, err := ws.RepairDAG(c.g, w, d, ev.links, old)
					if err != nil {
						t.Fatal(err)
					}
					var rewired []int
					for u := range outs {
						if !slices.Equal(outs[u], d.Out[u]) {
							rewired = append(rewired, u)
						}
					}
					if got := slices.Sorted(slices.Values(ws.OutChanged())); !slices.Equal(got, rewired) {
						t.Fatalf("trial %d event %d: OutChanged %v, Out lists changed at %v", trial, k, got, rewired)
					}
					kept, routable := ws.FlowsKept(), propagates(c.g, d, demand)
					if kept && !routable {
						t.Fatalf("trial %d event %d: FlowsKept, yet the demand no longer propagates", trial, k)
					}
					redrawn := rng.Intn(2) == 0 || !routable
					if redrawn {
						demand = routableDemand(rng, c.g, d)
					}
					before := slices.Clone(flow)
					marks.Clear()
					EvenSplitsAt(c.g, d, ws.OutChanged(), ratio, flow, &marks)
					if err := ws.PropagateDownMarked(c.g, d, demand, ratio, flow, &marks); err != nil {
						t.Fatalf("trial %d event %d: PropagateDownMarked: %v", trial, k, err)
					}
					EvenSplitsInto(c.g, d, wantRatio)
					if err := ws.PropagateDownInto(c.g, d, demand, wantRatio, wantFlow); err != nil {
						t.Fatalf("trial %d event %d: PropagateDownInto: %v", trial, k, err)
					}
					var changed []int
					for e := 0; e < m; e++ {
						if math.Float64bits(ratio[e]) != math.Float64bits(wantRatio[e]) {
							t.Fatalf("trial %d event %d: ratio[%d] %v in place, %v fresh", trial, k, e, ratio[e], wantRatio[e])
						}
						if math.Float64bits(flow[e]) != math.Float64bits(wantFlow[e]) {
							t.Fatalf("trial %d event %d: flow[%d] %v in place, %v fresh", trial, k, e, flow[e], wantFlow[e])
						}
						if math.Float64bits(flow[e]) != math.Float64bits(before[e]) {
							changed = append(changed, e)
						}
					}
					got := slices.Sorted(slices.Values(marks.IDs()))
					if !slices.Equal(got, changed) {
						t.Fatalf("trial %d event %d: marked %v, flow changed on %v", trial, k, got, changed)
					}
					if kept && !redrawn {
						if len(changed) > 0 {
							t.Fatalf("trial %d event %d: FlowsKept, yet the flow changed on %v", trial, k, changed)
						}
						if moved > 0 {
							keptMoved++
						}
					}
					events++
					if len(changed) > 0 {
						marked++
					}
				}
			}
			t.Logf("%d of %d events moved a flow, %d moved distances but kept every flow", marked, events, keptMoved)
			if marked == 0 || keptMoved == 0 {
				t.Fatal("no event moved a flow, or none kept them all: the test checks too little")
			}
		})
	}
}

// TestFlowsKeptSeesReorderedInFlows pins the case FlowsKept checks the
// node order for: m and x both feed v alone, and v feeds the
// destination. Raising m's link a little moves m but keeps every Out
// list and the order, so every flow keeps its bits and the repair
// reports FlowsKept. Raising m's link further and lowering x's in one
// event still keeps every Out list, but now m precedes x, and v adds
// its in-flows in the other order: 0.1 + 0.1 + 1 is 1.2 where
// 0.1 + 1 + 0.1 was 1.2000000000000002.
func TestFlowsKeptSeesReorderedInFlows(t *testing.T) {
	g := New(4) // m=0, x=1, v=2, t=3
	mustLink(t, g, 0, 2, 1)
	mustLink(t, g, 1, 2, 1)
	mustLink(t, g, 2, 3, 1)
	w := []float64{2, 3, 1}
	d, err := BuildDAG(g, w, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	demand := []float64{0.1, 1, 0.1, 0}
	ratio := make([]float64, g.NumLinks())
	EvenSplitsInto(g, d, ratio)
	flows := func() []float64 {
		f, err := PropagateDown(g, d, demand, ratio)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	before := flows()
	ws := NewWorkspace(g)
	for _, ev := range []struct {
		links    []int
		w        []float64
		reorders bool
	}{
		{[]int{0}, []float64{2.5}, false},
		{[]int{0, 1}, []float64{5, 1}, true},
	} {
		old := make([]float64, len(ev.links))
		for k, e := range ev.links {
			old[k], w[e] = w[e], ev.w[k]
		}
		moved, err := ws.RepairDAG(g, w, d, ev.links, old)
		if err != nil {
			t.Fatal(err)
		}
		if moved == 0 || len(ws.OutChanged()) != 0 {
			t.Fatalf("event %v: moved %d distances and changed Out lists at %v; want moves and no Out change",
				ev.links, moved, ws.OutChanged())
		}
		after := flows()
		if same := slices.Equal(after, before); same == ev.reorders {
			t.Fatalf("event %v: flows %v before, %v after", ev.links, before, after)
		}
		if ws.FlowsKept() == ev.reorders {
			t.Fatalf("event %v: FlowsKept %v, want %v", ev.links, ws.FlowsKept(), !ev.reorders)
		}
	}
}

// TestRepairDAGZeroWeightCycle pins the case that makes step 1 walk the
// graph's links rather than the DAG's: node a's only shortest path
// starts with a zero-weight link to the equidistant node b, a link the
// DAG leaves out. Raising b's link to the destination must move a too.
func TestRepairDAGZeroWeightCycle(t *testing.T) {
	g := New(3) // a=0, b=1, t=2
	mustLink(t, g, 0, 1, 1)
	mustLink(t, g, 1, 0, 1)
	mustLink(t, g, 1, 2, 1)
	mustLink(t, g, 0, 2, 1)
	w := []float64{0, 0, 1, 3}
	d, err := BuildDAG(g, w, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dist[0] != 1 || len(d.Out[0]) != 0 {
		t.Fatalf("setup: a at distance %v with out-links %v, want 1 and none", d.Dist[0], d.Out[0])
	}
	w[2] = 5
	moved, err := NewWorkspace(g).RepairDAG(g, w, d, []int{2}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := BuildDAG(g, w, 2, 0)
	if err := dagDiff(d, want); err != nil {
		t.Fatal(err)
	}
	if moved != 2 {
		t.Fatalf("moved %d distances, want 2 (a and b)", moved)
	}
}

// TestRepairDAGRejectsBadInput: shapes and the event's new weights are
// checked before anything changes.
func TestRepairDAGRejectsBadInput(t *testing.T) {
	g := fig1(t)
	w := []float64{3, 10, 1.5, 1.5}
	d, err := BuildDAG(g, w, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(g)
	nan := slices.Clone(w)
	nan[1] = math.NaN()
	neg := slices.Clone(w)
	neg[1] = -1
	for name, call := range map[string]func() error{
		"short weights": func() error { _, err := ws.RepairDAG(g, w[:3], d, []int{1}, []float64{10}); return err },
		"link range":    func() error { _, err := ws.RepairDAG(g, w, d, []int{4}, []float64{1}); return err },
		"old count":     func() error { _, err := ws.RepairDAG(g, w, d, []int{1}, nil); return err },
		"NaN weight":    func() error { _, err := ws.RepairDAG(g, nan, d, []int{1}, []float64{10}); return err },
		"negative":      func() error { _, err := ws.RepairDAG(g, neg, d, []int{1}, []float64{10}); return err },
		"foreign DAG":   func() error { _, err := ws.RepairDAG(g, w, &DAG{}, []int{1}, []float64{10}); return err },
	} {
		if call() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	want, _ := BuildDAG(g, w, 2, 0)
	if err := dagDiff(d, want); err != nil {
		t.Fatalf("a rejected repair changed the DAG: %v", err)
	}
}

// FuzzRepairDAG decodes bytes into a small graph (up to 10 nodes and 31
// links), a weight vector of 0, +Inf, small integers and sevenths, and a
// sequence of up to 32 multi-link weight events, and checks after each
// event that the repaired DAG equals BuildDAG under the new weights bit
// for bit (see decodeRepairCase for the layout). It is seeded from the
// property test's families.
func FuzzRepairDAG(f *testing.F) {
	for _, fam := range repairFamilies {
		rng := rand.New(rand.NewSource(1))
		for k := 0; k < 2; k++ {
			f.Add(fam.gen(rng))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := decodeRepairCase(data); ok {
			checkRepairCase(t, &Workspace{}, c)
		}
	})
}
