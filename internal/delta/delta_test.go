package delta

import (
	"math/rand"
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

// fromScratch rebuilds the engine's current state cold: the variant
// topology its down-set leaves, the weights projected onto it, and the
// current demand matrix, evaluated by the constructor path only.
func fromScratch(t *testing.T, en *Engine) *Evaluator {
	t.Helper()
	g, w := en.Graph(), en.Weights()
	if down := en.Down(); len(down) > 0 {
		vg, keep, err := g.WithoutLinks(down...)
		if err != nil {
			t.Fatalf("WithoutLinks(%v): %v", down, err)
		}
		wf := make([]float64, vg.NumLinks())
		for newID, oldID := range keep {
			wf[newID] = w[oldID]
		}
		g, w = vg, wf
	}
	full, err := NewEvaluator(g, en.Evaluator().Matrix().Clone(), w)
	if err != nil {
		t.Fatalf("from-scratch evaluation: %v", err)
	}
	return full
}

func checkOracle(t *testing.T, en *Engine, tag string) {
	t.Helper()
	full := fromScratch(t, en)
	if err := en.Evaluator().Equal(full); err != nil {
		t.Fatalf("%s: warm state diverged from from-scratch evaluation: %v", tag, err)
	}
	if got, want := en.Metrics(), full.Metrics(); got != want {
		t.Fatalf("%s: metrics %+v, from-scratch %+v", tag, got, want)
	}
}

// TestEngineEventSequencesBitIdenticalToFromScratch is the package's
// central property: across random topologies and random interleaved
// event sequences — weight changes, single-entry demand updates, whole
// demand-matrix steps, link failures and restorations — the warm
// engine state stays bit-identical to a from-scratch evaluation of the
// current (variant topology, projected weights, demands) triple, every
// WhatIf query predicts the committed outcome exactly, and restoring
// every failed link lands back on intact state bit-for-bit.
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

		for step := 0; step < 60; step++ {
			switch rng.Intn(5) {
			case 0, 1:
				e := rng.Intn(g.NumLinks())
				nw := float64(1 + rng.Intn(20))
				want, werr := en.WhatIfWeight(scratch, e, nw)
				if werr != nil {
					t.Fatalf("seed %d step %d: WhatIfWeight: %v", seed, step, werr)
				}
				if err := en.SetWeight(e, nw); err != nil {
					t.Fatalf("seed %d step %d: SetWeight: %v", seed, step, err)
				}
				if got := en.Metrics(); got != want {
					t.Fatalf("seed %d step %d: WhatIfWeight predicted %+v, SetWeight produced %+v",
						seed, step, want, got)
				}
			case 2:
				src, dst := rng.Intn(nodes), rng.Intn(nodes)
				if src == dst {
					continue
				}
				v := float64(rng.Intn(4)) * 0.4 * base.At(src, dst)
				want, werr := en.WhatIfDemand(scratch, src, dst, v)
				err := en.SetDemand(src, dst, v)
				if (err == nil) != (werr == nil) {
					t.Fatalf("seed %d step %d: SetDemand err %v but WhatIfDemand err %v", seed, step, err, werr)
				}
				if err == nil {
					if got := en.Metrics(); got != want {
						t.Fatalf("seed %d step %d: WhatIfDemand predicted %+v, SetDemand produced %+v",
							seed, step, want, got)
					}
				}
			case 3:
				m, err := base.Scaled(0.5 + rng.Float64())
				if err != nil {
					t.Fatalf("seed %d step %d: Scaled: %v", seed, step, err)
				}
				if err := en.StepDemands(m); err != nil {
					t.Fatalf("seed %d step %d: StepDemands: %v", seed, step, err)
				}
			case 4:
				if down := en.Down(); len(down) > 0 && rng.Intn(2) == 0 {
					e := down[rng.Intn(len(down))]
					want, werr := en.WhatIfLinkUp(e)
					if werr != nil {
						t.Fatalf("seed %d step %d: WhatIfLinkUp(%d): %v", seed, step, e, werr)
					}
					if err := en.LinkUp(e); err != nil {
						t.Fatalf("seed %d step %d: LinkUp(%d): %v", seed, step, e, err)
					}
					if got := en.Metrics(); got != want {
						t.Fatalf("seed %d step %d: WhatIfLinkUp predicted %+v, LinkUp produced %+v",
							seed, step, want, got)
					}
				} else if len(down) < 2 {
					e := rng.Intn(g.NumLinks())
					if en.IsDown(e) {
						continue
					}
					want, werr := en.WhatIfLinkDown(e)
					err := en.LinkDown(e)
					if (err == nil) != (werr == nil) {
						t.Fatalf("seed %d step %d: LinkDown(%d) err %v but WhatIfLinkDown err %v",
							seed, step, e, err, werr)
					}
					if err != nil {
						// Rejected failure (stranded demand): state must be intact.
						checkOracle(t, en, "after rejected LinkDown")
						continue
					}
					if got := en.Metrics(); got != want {
						t.Fatalf("seed %d step %d: WhatIfLinkDown predicted %+v, LinkDown produced %+v",
							seed, step, want, got)
					}
				}
			}
			if step%7 == 0 {
				checkOracle(t, en, "mid-sequence")
			}
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
