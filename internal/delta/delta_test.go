package delta

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

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

// fromScratch rebuilds the engine's current state cold on the failure
// variant: the topology its down-set leaves (graph.WithoutLinks), the
// weights projected onto it, and the current demand matrix, evaluated
// by the constructor path only. keep maps the variant's link IDs to
// intact ones.
func fromScratch(t *testing.T, en *Engine) (*Evaluator, []int) {
	t.Helper()
	vg, keep, err := en.Graph().WithoutLinks(en.Down()...)
	if err != nil {
		t.Fatalf("WithoutLinks(%v): %v", en.Down(), err)
	}
	w := en.Weights()
	wf := make([]float64, vg.NumLinks())
	for newID, oldID := range keep {
		wf[newID] = w[oldID]
	}
	full, err := NewEvaluator(vg, en.Evaluator().Matrix().Clone(), wf)
	if err != nil {
		t.Fatalf("from-scratch evaluation: %v", err)
	}
	return full, keep
}

// equalProjected compares an intact-ID evaluator with a from-scratch
// evaluation of the failure variant through the link projection keep
// (variant link -> intact link), bitwise: destinations, demand columns,
// distances, DAG out-links mapped through keep, node order, and the
// weights, splits, flows, aggregate flow and cost term of every
// surviving link, then the cost. Every link outside keep must weigh
// +Inf, sit in no DAG and carry exactly zero flow.
func equalProjected(ev, full *Evaluator, keep []int) error {
	rev := make([]int, ev.g.NumLinks()) // intact -> variant link, or -1
	for e := range rev {
		rev[e] = -1
	}
	for j, e := range keep {
		rev[e] = j
	}
	same := func(what string, e int, a, b float64) error {
		if a != b || math.Signbit(a) != math.Signbit(b) {
			return fmt.Errorf("%s of link %d: %v vs %v", what, e, a, b)
		}
		return nil
	}
	pick := func(v []float64, e int) float64 { // variant entry, or +0 for a down link
		if rev[e] < 0 {
			return 0
		}
		return v[rev[e]]
	}
	if !slices.Equal(ev.dests, full.dests) {
		return fmt.Errorf("destinations %v vs %v", ev.dests, full.dests)
	}
	for e := range rev {
		if rev[e] < 0 && !math.IsInf(ev.w[e], 1) {
			return fmt.Errorf("down link %d weighs %v, want +Inf", e, ev.w[e])
		}
		if rev[e] >= 0 {
			if err := same("weight", e, ev.w[e], full.w[rev[e]]); err != nil {
				return err
			}
		}
		if err := same("total flow", e, ev.total[e], pick(full.total, e)); err != nil {
			return err
		}
		if err := same("cost term", e, ev.terms[e], pick(full.terms, e)); err != nil {
			return err
		}
	}
	mapped := func(ids []int) []int {
		out := make([]int, len(ids))
		for k, j := range ids {
			out[k] = keep[j]
		}
		return out
	}
	for i, t := range ev.dests {
		a, b := ev.dags[i], full.dags[i]
		if !slices.Equal(ev.demands[i], full.demands[i]) {
			return fmt.Errorf("destination %d: demand column differs", t)
		}
		for u := range a.Dist {
			if a.Dist[u] != b.Dist[u] {
				return fmt.Errorf("destination %d: dist[%d] %v vs %v", t, u, a.Dist[u], b.Dist[u])
			}
			if !equalMapped(a.Out[u], b.Out[u], keep) {
				return fmt.Errorf("destination %d: node %d DAG out-links %v, variant maps to %v",
					t, u, a.Out[u], mapped(b.Out[u]))
			}
		}
		if !slices.Equal(a.NodesDescending(), b.NodesDescending()) {
			return fmt.Errorf("destination %d: node order %v vs %v", t, a.NodesDescending(), b.NodesDescending())
		}
		for e := range rev {
			if err := same("split", e, ev.splits[i][e], pick(full.splits[i], e)); err != nil {
				return fmt.Errorf("destination %d: %w", t, err)
			}
			if err := same("flow", e, ev.flows[i][e], pick(full.flows[i], e)); err != nil {
				return fmt.Errorf("destination %d: %w", t, err)
			}
		}
	}
	if ev.cost != full.cost {
		return fmt.Errorf("cost %v vs %v", ev.cost, full.cost)
	}
	return nil
}

// equalMapped reports whether the intact link list a is the variant
// link list b mapped through keep.
func equalMapped(a, b, keep []int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, j := range b {
		if a[k] != keep[j] {
			return false
		}
	}
	return true
}

// checkOracle requires the engine's state to equal, through the link
// projection, a from-scratch evaluation of its failure variant.
func checkOracle(t *testing.T, en *Engine, tag string) {
	t.Helper()
	full, keep := fromScratch(t, en)
	if err := equalProjected(en.Evaluator(), full, keep); err != nil {
		t.Fatalf("%s: warm state diverged from from-scratch evaluation: %v", tag, err)
	}
	if got, want := en.Metrics(), full.Metrics(); got != want {
		t.Fatalf("%s: metrics %+v, from-scratch %+v", tag, got, want)
	}
}

// snapshot deep-copies an evaluator's state, the cached per-link cost
// terms included, for the checks that a rejected event left it bitwise
// untouched (Evaluator.Equal).
func snapshot(ev *Evaluator) *Evaluator {
	c := &Evaluator{w: slices.Clone(ev.w), dests: slices.Clone(ev.dests), total: slices.Clone(ev.total),
		terms: slices.Clone(ev.terms), cost: ev.cost}
	for i := range ev.dests {
		c.dags = append(c.dags, ev.dags[i].Clone())
		c.splits = append(c.splits, slices.Clone(ev.splits[i]))
		c.flows = append(c.flows, slices.Clone(ev.flows[i]))
	}
	return c
}

// checkEvent runs a what-if (when one is given) and then commits the
// same event, and requires them to agree: both rejected with
// ErrBadInput and the state bitwise untouched, or both accepted with
// the committed state reading the predicted metrics. It reports whether
// the event was accepted.
func checkEvent(t *testing.T, en *Engine, tag string, whatIf func() (Metrics, error), commit func() error) bool {
	t.Helper()
	before, w, down, m0 := snapshot(en.Evaluator()), en.Weights(), en.Down(), en.Metrics()
	want, werr := m0, error(nil)
	if whatIf != nil {
		want, werr = whatIf()
	}
	err := commit()
	if whatIf != nil && (err == nil) != (werr == nil) {
		t.Fatalf("%s: event error %v but what-if error %v", tag, err, werr)
	}
	if err != nil {
		if !errors.Is(err, ErrBadInput) || (werr != nil && !errors.Is(werr, ErrBadInput)) {
			t.Fatalf("%s: rejection %v (what-if %v) is not ErrBadInput", tag, err, werr)
		}
		if e := en.Evaluator().Equal(before); e != nil {
			t.Fatalf("%s: rejected event (%v) changed the state: %v", tag, err, e)
		}
		if !slices.Equal(en.Weights(), w) || !slices.Equal(en.Down(), down) || en.Metrics() != m0 {
			t.Fatalf("%s: rejected event (%v) changed weights, down-set or metrics", tag, err)
		}
		return false
	}
	if whatIf != nil {
		if got := en.Metrics(); got != want {
			t.Fatalf("%s: what-if predicted %+v, the event produced %+v", tag, want, got)
		}
	}
	return true
}

// TestEngineEventSequencesBitIdenticalToFromScratch is the package's
// central property: across random topologies and random interleaved
// event sequences — weight changes, single-entry demand updates, whole
// demand-matrix steps, link failures and restorations, two-link
// failure and restoration batches, and batches naming a link twice —
// the warm engine state stays bit-identical after every event, through
// the link projection, to a from-scratch evaluation of the current
// (variant topology, projected weights, demands) triple, every WhatIf query
// (single- or multi-link) predicts the committed outcome exactly, every
// rejected event leaves the state untouched, and restoring every failed
// link lands back on intact state bit-for-bit.
func TestEngineEventSequencesBitIdenticalToFromScratch(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 8 + rng.Intn(6)
		links := 2 * (nodes + rng.Intn(nodes))
		g, base := randomInstance(t, seed, nodes, links)
		w := make([]float64, g.NumLinks())
		for i := range w {
			w[i] = float64(1 + rng.Intn(20))
		}
		en, err := NewEngine(g, base, w)
		if err != nil {
			t.Fatalf("seed %d: NewEngine: %v", seed, err)
		}
		scratch := en.NewScratch()

		for step := 0; step < 80; step++ {
			tag := fmt.Sprintf("seed %d step %d", seed, step)
			switch rng.Intn(6) {
			case 0, 1:
				e := rng.Intn(g.NumLinks())
				nw := float64(1 + rng.Intn(20))
				if !checkEvent(t, en, tag+" set-weight",
					func() (Metrics, error) { return en.WhatIfWeight(scratch, e, nw) },
					func() error { return en.SetWeight(e, nw) }) {
					t.Fatalf("%s: SetWeight(%d, %v) rejected", tag, e, nw)
				}
			case 2:
				src, dst := rng.Intn(nodes), rng.Intn(nodes)
				if src == dst {
					continue
				}
				v := float64(rng.Intn(4)) * 0.4 * base.At(src, dst)
				checkEvent(t, en, tag+" set-demand",
					func() (Metrics, error) { return en.WhatIfDemand(scratch, src, dst, v) },
					func() error { return en.SetDemand(src, dst, v) })
			case 3:
				m, err := base.Scaled(0.5 + rng.Float64())
				if err != nil {
					t.Fatalf("%s: Scaled: %v", tag, err)
				}
				if err := en.StepDemands(m); err != nil {
					t.Fatalf("%s: StepDemands: %v", tag, err)
				}
			case 4:
				if down := en.Down(); len(down) > 0 && rng.Intn(2) == 0 {
					e := down[rng.Intn(len(down))]
					if !checkEvent(t, en, tag+" link-up",
						func() (Metrics, error) { return en.WhatIfLinkUp(e) },
						func() error { return en.LinkUp(e) }) {
						t.Fatalf("%s: LinkUp(%d) rejected", tag, e)
					}
				} else if len(down) < 2 {
					e := rng.Intn(g.NumLinks())
					if en.IsDown(e) {
						continue
					}
					checkEvent(t, en, tag+" link-down",
						func() (Metrics, error) { return en.WhatIfLinkDown(e) },
						func() error { return en.LinkDown(e) })
				}
			case 5:
				a, b := rng.Intn(g.NumLinks()), rng.Intn(g.NumLinks())
				if rng.Intn(4) == 0 {
					b = a // a duplicate ID rejects the whole batch
				}
				set := []int{a, b}
				if en.IsDown(a) && en.IsDown(b) {
					if !checkEvent(t, en, tag+" restore batch", nil,
						func() error { return en.RestoreLinks(set...) }) && a != b {
						t.Fatalf("%s: RestoreLinks(%v) rejected", tag, set)
					}
				} else if !en.IsDown(a) && !en.IsDown(b) && len(en.Down()) < 3 {
					if checkEvent(t, en, tag+" fail batch",
						func() (Metrics, error) { return en.WhatIfFailLinks(scratch, set...) },
						func() error { return en.FailLinks(set...) }) && a == b {
						t.Fatalf("%s: FailLinks(%v) accepted a duplicate ID", tag, set)
					}
				}
			}
			checkOracle(t, en, tag)
		}

		// Restore every failed link and require bit-identity with a cold
		// evaluation of the intact final state.
		for _, e := range en.Down() {
			if err := en.LinkUp(e); err != nil {
				t.Fatalf("seed %d: final LinkUp(%d): %v", seed, e, err)
			}
		}
		checkOracle(t, en, "final restored state")
	}
}

// TestSetDemandInsertRemove exercises the destination set maintenance:
// a demand entry toward a fresh destination inserts it in order, a
// drained column drops it, and draining the last positive entry is
// rejected with the state untouched — each transition bit-identical to
// from-scratch.
func TestSetDemandInsertRemove(t *testing.T) {
	g, _ := randomInstance(t, 7, 8, 24)
	tm := traffic.NewMatrix(g.NumNodes())
	if err := tm.Set(0, 3, 5); err != nil {
		t.Fatal(err)
	}
	if err := tm.Set(1, 3, 2); err != nil {
		t.Fatal(err)
	}
	w := make([]float64, g.NumLinks())
	for i := range w {
		w[i] = 1
	}
	en, err := NewEngine(g, tm, w)
	if err != nil {
		t.Fatal(err)
	}
	if en.NumDestinations() != 1 {
		t.Fatalf("got %d destinations, want 1", en.NumDestinations())
	}
	// Insert destinations on both sides of the existing one.
	for _, ev := range [][3]float64{{2, 5, 3}, {4, 1, 2.5}, {3, 6, 1}} {
		if err := en.SetDemand(int(ev[0]), int(ev[1]), ev[2]); err != nil {
			t.Fatalf("SetDemand(%v): %v", ev, err)
		}
		checkOracle(t, en, "after insert")
	}
	if en.NumDestinations() != 4 {
		t.Fatalf("got %d destinations, want 4", en.NumDestinations())
	}
	// Drain them back out.
	for _, ev := range [][2]int{{2, 5}, {4, 1}, {3, 6}, {1, 3}} {
		if err := en.SetDemand(ev[0], ev[1], 0); err != nil {
			t.Fatalf("SetDemand(%v, 0): %v", ev, err)
		}
		checkOracle(t, en, "after remove")
	}
	if en.NumDestinations() != 1 {
		t.Fatalf("got %d destinations, want 1", en.NumDestinations())
	}
	// The last positive entry must not drain away.
	if err := en.SetDemand(0, 3, 0); err == nil {
		t.Fatal("draining the last positive demand succeeded, want rejection")
	}
	checkOracle(t, en, "after rejected drain")
}

// TestStepDemandsChangesDestinationSet drives ReplaceDemands through
// insertion, removal and column changes in one step.
func TestStepDemandsChangesDestinationSet(t *testing.T) {
	g, _ := randomInstance(t, 11, 9, 28)
	tm := traffic.NewMatrix(g.NumNodes())
	for _, e := range [][3]float64{{0, 4, 3}, {2, 4, 1}, {5, 7, 2}} {
		if err := tm.Set(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	w := make([]float64, g.NumLinks())
	for i := range w {
		w[i] = 1
	}
	en, err := NewEngine(g, tm, w)
	if err != nil {
		t.Fatal(err)
	}
	next := traffic.NewMatrix(g.NumNodes())
	// Destination 4 survives with a changed column, 7 drains, 2 and 8
	// appear.
	for _, e := range [][3]float64{{0, 4, 4.5}, {1, 2, 2}, {3, 8, 1.5}} {
		if err := next.Set(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := en.StepDemands(next); err != nil {
		t.Fatalf("StepDemands: %v", err)
	}
	checkOracle(t, en, "after destination-churning step")
	if en.NumDestinations() != 3 {
		t.Fatalf("got %d destinations, want 3", en.NumDestinations())
	}
}

// TestLinkFlapAppliesWeightSetWhileDown: a weight pushed to a down link
// must take effect the moment LinkUp restores it.
func TestLinkFlapAppliesWeightSetWhileDown(t *testing.T) {
	g, tm := randomInstance(t, 5, 10, 36)
	w := make([]float64, g.NumLinks())
	for i := range w {
		w[i] = 1
	}
	en, err := NewEngine(g, tm, w)
	if err != nil {
		t.Fatal(err)
	}
	var flapped int = -1
	for e := 0; e < g.NumLinks(); e++ {
		if err := en.LinkDown(e); err == nil {
			flapped = e
			break
		}
	}
	if flapped < 0 {
		t.Skip("no single-link failure keeps the demands routable")
	}
	if err := en.SetWeight(flapped, 13); err != nil {
		t.Fatalf("SetWeight on down link: %v", err)
	}
	if err := en.LinkUp(flapped); err != nil {
		t.Fatalf("LinkUp: %v", err)
	}
	if got := en.Weights()[flapped]; got != 13 {
		t.Fatalf("restored link weight %v, want 13", got)
	}
	checkOracle(t, en, "after flap with weight push")
	// And the whole state must equal a cold engine built at the final
	// configuration.
	fresh, err := NewEngine(g, en.Evaluator().Matrix(), en.Weights())
	if err != nil {
		t.Fatal(err)
	}
	if err := en.Evaluator().Equal(fresh.Evaluator()); err != nil {
		t.Fatalf("flapped engine differs from cold engine: %v", err)
	}
}
