package delta

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestFailLinksBatchedMatchesSequential: failing a set of links in one
// FailLinks event must land on exactly the state a sequence of
// single-link LinkDown events reaches (set semantics — one weight event
// for the whole set cannot differ from one per link), and RestoreLinks
// must undo it the same way. Both paths are checked against
// from-scratch evaluation.
func TestFailLinksBatchedMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g, tm := randomInstance(t, seed, 9, 30)
		w := make([]float64, g.NumLinks())
		rng := rand.New(rand.NewSource(seed))
		for i := range w {
			w[i] = float64(1 + rng.Intn(20))
		}
		batched, err := NewEngine(g, tm, w)
		if err != nil {
			t.Fatalf("seed %d: NewEngine: %v", seed, err)
		}
		stepped, err := NewEngine(g, tm, w)
		if err != nil {
			t.Fatalf("seed %d: NewEngine: %v", seed, err)
		}

		// Find a routable pair of links by probing the sequential engine.
		var set []int
		for a := 0; a < g.NumLinks() && len(set) < 2; a++ {
			if err := stepped.LinkDown(a); err != nil {
				continue
			}
			set = append(set, a)
		}
		if len(set) < 2 {
			t.Skipf("seed %d: no routable dual failure", seed)
		}

		if err := batched.FailLinks(set...); err != nil {
			t.Fatalf("seed %d: FailLinks(%v): %v", seed, set, err)
		}
		if err := batched.Evaluator().Equal(stepped.Evaluator()); err != nil {
			t.Fatalf("seed %d: batched FailLinks(%v) differs from sequential LinkDowns: %v", seed, set, err)
		}
		if got, want := batched.Metrics(), stepped.Metrics(); got != want {
			t.Fatalf("seed %d: batched metrics %+v, sequential %+v", seed, got, want)
		}
		checkOracle(t, batched, "after batched failure")

		if err := batched.RestoreLinks(set...); err != nil {
			t.Fatalf("seed %d: RestoreLinks(%v): %v", seed, set, err)
		}
		if len(batched.Down()) != 0 {
			t.Fatalf("seed %d: %d links still down after RestoreLinks", seed, len(batched.Down()))
		}
		for _, e := range set {
			if err := stepped.LinkUp(e); err != nil {
				t.Fatalf("seed %d: LinkUp(%d): %v", seed, e, err)
			}
		}
		if err := batched.Evaluator().Equal(stepped.Evaluator()); err != nil {
			t.Fatalf("seed %d: batched RestoreLinks differs from sequential LinkUps: %v", seed, err)
		}
		checkOracle(t, batched, "after batched restore")
	}
}

// TestFailLinksRejectedBatchRollsBack: a batch that strands a demand
// (here: every link at once) must be rejected with ErrBadInput and the
// engine restored to its pre-event state bit-for-bit, whatever it had
// re-routed before it met the stranded destination.
func TestFailLinksRejectedBatchRollsBack(t *testing.T) {
	g, tm := randomInstance(t, 2, 8, 24)
	w := make([]float64, g.NumLinks())
	for i := range w {
		w[i] = 1
	}
	en, err := NewEngine(g, tm, w)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, g.NumLinks())
	for i := range all {
		all[i] = i
	}
	before := snapshot(en.Evaluator())
	if err := en.FailLinks(all...); !errors.Is(err, ErrBadInput) {
		t.Fatalf("failing every link: %v, want ErrBadInput", err)
	}
	if err := en.Evaluator().Equal(before); err != nil {
		t.Fatalf("rejected whole-graph failure changed the state: %v", err)
	}
	if len(en.Down()) != 0 {
		t.Fatalf("%d links down after rejected batch, want 0", len(en.Down()))
	}
	checkOracle(t, en, "after rejected whole-graph failure")

	// The rollback must also cover validation failures mid-batch: a
	// batch containing an already-down link reverts the earlier flips.
	var first int = -1
	for e := 0; e < g.NumLinks(); e++ {
		if err := en.LinkDown(e); err == nil {
			first = e
			break
		}
	}
	if first < 0 {
		t.Skip("no routable single failure")
	}
	next := -1
	for e := 0; e < g.NumLinks(); e++ {
		if e != first && !en.IsDown(e) {
			next = e
			break
		}
	}
	if err := en.FailLinks(next, first); err == nil {
		t.Fatalf("FailLinks(%d, already-down %d) succeeded, want rejection", next, first)
	}
	if en.IsDown(next) {
		t.Fatalf("link %d left down by rejected batch", next)
	}
	if !en.IsDown(first) {
		t.Fatalf("pre-existing failure of link %d lost by rejected batch", first)
	}
	checkOracle(t, en, "after rejected mixed batch")

	// RestoreLinks validates symmetrically: restoring an up link is
	// rejected and reverts the restores already applied.
	up := next // known up
	if err := en.RestoreLinks(first, up); err == nil {
		t.Fatalf("RestoreLinks(%d, up %d) succeeded, want rejection", first, up)
	}
	if !en.IsDown(first) {
		t.Fatalf("rejected RestoreLinks left link %d restored", first)
	}
	checkOracle(t, en, "after rejected restore batch")
}

// TestFailLinksEmptyAndInvalid pins the edges: an empty batch is a
// no-op, and an out-of-range ID is rejected before any flip.
func TestFailLinksEmptyAndInvalid(t *testing.T) {
	g, tm := randomInstance(t, 3, 8, 24)
	w := make([]float64, g.NumLinks())
	for i := range w {
		w[i] = 1
	}
	en, err := NewEngine(g, tm, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := en.FailLinks(); err != nil {
		t.Fatalf("empty FailLinks: %v", err)
	}
	if err := en.RestoreLinks(); err != nil {
		t.Fatalf("empty RestoreLinks: %v", err)
	}
	checkOracle(t, en, "after empty batches")
	if err := en.FailLinks(g.NumLinks()); err == nil {
		t.Fatal("FailLinks(out of range) succeeded")
	}
	if err := en.FailLinks(0, -1); err == nil {
		t.Fatal("FailLinks(-1) succeeded")
	}
	if len(en.Down()) != 0 {
		t.Fatalf("%d links down after invalid batches", len(en.Down()))
	}
	checkOracle(t, en, "after invalid batches")
}

// TestRejectedInfiniteWeightLeavesStateUntouched: on the line 0↔1↔2
// with demands 0→2 and 2→0, pushing weight +Inf onto link 1→2 strands
// 0→2. The push must be rejected with ErrBadInput and leave the state
// bitwise untouched — evaluator weights included — and equal to
// from-scratch.
func TestRejectedInfiniteWeightLeavesStateUntouched(t *testing.T) {
	g := graph.New(3)
	for _, p := range [][2]int{{0, 1}, {1, 2}} {
		if _, _, err := g.AddDuplex(p[0], p[1], 10); err != nil {
			t.Fatal(err)
		}
	}
	tm := traffic.NewMatrix(3)
	if err := tm.Set(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := tm.Set(2, 0, 1); err != nil {
		t.Fatal(err)
	}
	en, err := NewEngine(g, tm, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	before := snapshot(en.Evaluator())
	if l := g.Link(2); l.From != 1 || l.To != 2 {
		t.Fatalf("link 2 is %d->%d, want 1->2", l.From, l.To)
	}
	if err := en.SetWeight(2, math.Inf(1)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("SetWeight(2, +Inf) = %v, want ErrBadInput", err)
	}
	if err := en.Evaluator().Equal(before); err != nil {
		t.Fatalf("rejected +Inf push changed the state: %v", err)
	}
	if w := en.Weights()[2]; w != 1 {
		t.Fatalf("recorded weight of link 2 is %v, want 1", w)
	}
	checkOracle(t, en, "after rejected +Inf push")
}

// abileneEngine is a warm engine on Abilene's canonical demands under
// InvCap weights, with a link whose failure keeps every demand
// routable.
func abileneEngine(t *testing.T) (*Engine, int) {
	t.Helper()
	g := topo.Abilene()
	tm, err := traffic.CanonicalMatrix("Abilene", g)
	if err != nil {
		t.Fatal(err)
	}
	en, err := NewEngine(g, tm, routing.InvCapWeights(g))
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < g.NumLinks(); e++ {
		if en.LinkDown(e) == nil {
			if err := en.LinkUp(e); err != nil {
				t.Fatal(err)
			}
			return en, e
		}
	}
	t.Fatal("no single Abilene link can fail without stranding demand")
	return nil, 0
}

// TestFailureEventsAllocationFree pins the failure hot paths: on a warm
// Abilene engine, LinkDown, LinkUp and WhatIfLinkDown allocate nothing
// in steady state.
func TestFailureEventsAllocationFree(t *testing.T) {
	en, link := abileneEngine(t)
	cases := []struct {
		name   string
		pooled bool // draws its scratch from the engine's sync.Pool
		op     func()
	}{
		{"LinkDown+LinkUp", false, func() {
			if err := en.LinkDown(link); err != nil {
				t.Fatal(err)
			}
			if err := en.LinkUp(link); err != nil {
				t.Fatal(err)
			}
		}},
		{"WhatIfLinkDown", true, func() {
			if _, err := en.WhatIfLinkDown(link); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		if c.pooled && raceEnabled {
			continue // -race makes sync.Pool drop scratches at random
		}
		c.op() // warm the arenas and the scratch pool
		if allocs := testing.AllocsPerRun(100, c.op); allocs > 0 {
			t.Errorf("%s allocates %v allocs/op in steady state, want 0", c.name, allocs)
		}
	}
}

// TestWeightEventsAllocationFree pins the weight hot paths on a warm
// Abilene engine: RepairDAG on one destination's DAG, SetWeight and
// WhatIfWeight (on a private scratch) allocate nothing in steady state.
// Each case raises a link on a shortest path and must move distances,
// so the pin measures the repair.
func TestWeightEventsAllocationFree(t *testing.T) {
	en, link := abileneEngine(t)
	g, w := en.Graph(), en.Weights()
	lo, hi := []float64{w[link]}, []float64{3 * w[link]}
	links := []int{link}
	var dag *graph.DAG
	for _, dst := range en.Evaluator().Matrix().Destinations() {
		d, err := graph.BuildDAG(g, w, dst, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d.HasLink(g, link) {
			dag = d
			break
		}
	}
	if dag == nil {
		t.Fatalf("no destination's DAG holds link %d", link)
	}
	ws := graph.NewWorkspace(g)
	s := en.NewScratch()
	var repaired uint64
	cases := []struct {
		name  string
		op    func()
		moved func() uint64
	}{
		{"RepairDAG", func() {
			w[link] = hi[0]
			m, err := ws.RepairDAG(g, w, dag, links, lo)
			if err != nil {
				t.Fatal(err)
			}
			w[link] = lo[0]
			if _, err := ws.RepairDAG(g, w, dag, links, hi); err != nil {
				t.Fatal(err)
			}
			repaired += uint64(m)
		}, func() uint64 { return repaired }},
		{"SetWeight", func() {
			if err := en.SetWeight(link, hi[0]); err != nil {
				t.Fatal(err)
			}
			if err := en.SetWeight(link, lo[0]); err != nil {
				t.Fatal(err)
			}
		}, en.Moved},
		{"WhatIfWeight", func() {
			if _, err := en.WhatIfWeight(s, link, hi[0]); err != nil {
				t.Fatal(err)
			}
		}, en.Moved},
	}
	for _, c := range cases {
		c.op() // warm the arenas
		before := c.moved()
		if allocs := testing.AllocsPerRun(100, c.op); allocs > 0 {
			t.Errorf("%s allocates %v allocs/op in steady state, want 0", c.name, allocs)
		}
		if c.moved() == before {
			t.Errorf("%s moved no distance: the pin measures no repair", c.name)
		}
	}
}

// TestDemandEventsAllocationFree pins the demand hot paths on a warm
// Abilene engine: SetDemand on an existing destination and WhatIfDemand
// (on a private scratch) allocate nothing in steady state. Each case
// moves an entry between two positive volumes, so it re-propagates and
// re-sums links.
func TestDemandEventsAllocationFree(t *testing.T) {
	en, _ := abileneEngine(t)
	tm := en.Evaluator().Matrix()
	src, dst := -1, -1
	for s := 0; s < tm.Size() && src < 0; s++ {
		for d := 0; d < tm.Size(); d++ {
			if tm.At(s, d) > 0 {
				src, dst = s, d
				break
			}
		}
	}
	if src < 0 {
		t.Fatal("the Abilene matrix has no positive entry")
	}
	lo, hi := tm.At(src, dst), 2*tm.At(src, dst)
	s := en.NewScratch()
	cases := []struct {
		name string
		op   func()
	}{
		{"SetDemand", func() {
			if err := en.SetDemand(src, dst, hi); err != nil {
				t.Fatal(err)
			}
			if err := en.SetDemand(src, dst, lo); err != nil {
				t.Fatal(err)
			}
		}},
		{"WhatIfDemand", func() {
			if _, err := en.WhatIfDemand(s, src, dst, hi); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		c.op() // warm the arenas
		before := en.Resummed()
		if allocs := testing.AllocsPerRun(100, c.op); allocs > 0 {
			t.Errorf("%s allocates %v allocs/op in steady state, want 0", c.name, allocs)
		}
		if en.Resummed() == before {
			t.Errorf("%s re-summed no link: the pin measures no re-sum", c.name)
		}
	}
}

// flowRows deep-copies an evaluator's per-destination flow rows.
func flowRows(ev *Evaluator) [][]float64 {
	rows := make([][]float64, len(ev.flows))
	for i, row := range ev.flows {
		rows[i] = slices.Clone(row)
	}
	return rows
}

// movedLinks counts the links whose flow toward some destination
// differs between two row sets of the same destinations.
func movedLinks(a, b [][]float64) uint64 {
	var n uint64
	for e := range a[0] {
		for i := range a {
			if math.Float64bits(a[i][e]) != math.Float64bits(b[i][e]) {
				n++
				break
			}
		}
	}
	return n
}

// TestResummedCountsMovedLinks: on Abilene, tripling any link's weight
// and doubling any demand entry re-sums, in the engine's count, exactly
// the links whose flow toward some destination moved, counted here from
// the flow rows before and after; each event's what-if counts the same,
// and a demand step re-sums every link.
func TestResummedCountsMovedLinks(t *testing.T) {
	en, _ := abileneEngine(t)
	ev, s := en.Evaluator(), en.NewScratch()
	check := func(tag string, whatIf func() error, commit func() error) uint64 {
		t.Helper()
		before := flowRows(ev)
		r0 := en.Resummed()
		if err := whatIf(); err != nil {
			t.Fatalf("%s: what-if: %v", tag, err)
		}
		r1 := en.Resummed()
		if err := commit(); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		want := movedLinks(before, ev.flows)
		if r1-r0 != want || en.Resummed()-r1 != want {
			t.Fatalf("%s: what-if re-summed %d and the event %d links; %d links moved", tag, r1-r0, en.Resummed()-r1, want)
		}
		return want
	}
	var total uint64
	for e := 0; e < en.NumLinks(); e++ {
		w := en.Weights()[e]
		total += check(fmt.Sprintf("link %d", e),
			func() error { _, err := en.WhatIfWeight(s, e, 3*w); return err },
			func() error { return en.SetWeight(e, 3*w) })
		if err := en.SetWeight(e, w); err != nil {
			t.Fatal(err)
		}
	}
	tm := ev.Matrix()
	for src := 0; src < tm.Size(); src++ {
		for dst := 0; dst < tm.Size(); dst++ {
			v := tm.At(src, dst)
			if v == 0 {
				continue
			}
			total += check(fmt.Sprintf("demand %d->%d", src, dst),
				func() error { _, err := en.WhatIfDemand(s, src, dst, 2*v); return err },
				func() error { return en.SetDemand(src, dst, 2*v) })
		}
	}
	if total == 0 {
		t.Fatal("no event moved a flow: the test checks nothing")
	}
	step, err := tm.Scaled(0.5)
	if err != nil {
		t.Fatal(err)
	}
	r0 := en.Resummed()
	if err := en.StepDemands(step); err != nil {
		t.Fatal(err)
	}
	if got := en.Resummed() - r0; got != uint64(en.NumLinks()) {
		t.Fatalf("a demand step re-summed %d links, want all %d", got, en.NumLinks())
	}
}

// TestMovedCountsChangedDistances: for every Abilene link, tripling its
// weight moves, in the engine's count, exactly the (destination, node)
// distances that differ between from-scratch DAGs before and after the
// event; the event's what-if counts the same, and so does restoring the
// weight.
func TestMovedCountsChangedDistances(t *testing.T) {
	en, _ := abileneEngine(t)
	g := en.Graph()
	dests := en.Evaluator().Matrix().Destinations()
	dists := func(w []float64) [][]float64 {
		out := make([][]float64, len(dests))
		for i, d := range dests {
			dag, err := graph.BuildDAG(g, w, d, 0)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = dag.Dist
		}
		return out
	}
	s := en.NewScratch()
	total := uint64(0)
	for e := 0; e < g.NumLinks(); e++ {
		w := en.Weights()
		before := dists(w)
		old := w[e]
		w[e] *= 3
		after := dists(w)
		want := uint64(0)
		for i := range before {
			for u := range before[i] {
				if before[i][u] != after[i][u] {
					want++
				}
			}
		}
		m0 := en.Moved()
		if _, err := en.WhatIfWeight(s, e, w[e]); err != nil {
			t.Fatal(err)
		}
		whatIf := en.Moved() - m0
		if err := en.SetWeight(e, w[e]); err != nil {
			t.Fatal(err)
		}
		event := en.Moved() - m0 - whatIf
		if err := en.SetWeight(e, old); err != nil {
			t.Fatal(err)
		}
		restore := en.Moved() - m0 - whatIf - event
		if whatIf != want || event != want || restore != want {
			t.Fatalf("link %d: what-if moved %d, SetWeight %d and its restoration %d distances; %d differ from scratch",
				e, whatIf, event, restore, want)
		}
		total += want
	}
	if total == 0 {
		t.Fatal("no weight change moved a distance: the test checks nothing")
	}
}

// TestReroutedCountsScreenedDestinations: a single link-down re-routes
// exactly the destinations whose shortest-path DAG held the link,
// counted here independently on fresh DAGs; its what-if counts the
// same, and a rejected failure counts nothing.
func TestReroutedCountsScreenedDestinations(t *testing.T) {
	en, _ := abileneEngine(t)
	g, w := en.Graph(), en.Weights()
	dests := en.Evaluator().Matrix().Destinations()
	for e := 0; e < g.NumLinks(); e++ {
		want := 0
		for _, d := range dests {
			dag, err := graph.BuildDAG(g, w, d, 0)
			if err != nil {
				t.Fatal(err)
			}
			if dag.HasLink(g, e) {
				want++
			}
		}
		before := en.Rerouted()
		_, werr := en.WhatIfLinkDown(e)
		whatIf := en.Rerouted() - before
		err := en.LinkDown(e)
		event := en.Rerouted() - before - whatIf
		if err != nil {
			if werr == nil || whatIf != 0 || event != 0 {
				t.Fatalf("link %d: rejected failure (%v, what-if %v) counted %d+%d re-routes", e, err, werr, whatIf, event)
			}
			continue
		}
		if whatIf != uint64(want) || event != uint64(want) {
			t.Fatalf("link %d: what-if re-routed %d and LinkDown %d destinations, %d DAGs hold the link",
				e, whatIf, event, want)
		}
		if err := en.LinkUp(e); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentWhatIfsMatchSequential: failure what-ifs on pooled
// scratches and weight what-ifs on private ones may run from several
// goroutines against one engine; each answer must equal the sequential
// one (run under -race, this also checks they share no unsynchronized
// state).
func TestConcurrentWhatIfsMatchSequential(t *testing.T) {
	en, _ := abileneEngine(t)
	m := en.NumLinks()
	type answer struct {
		m  Metrics
		ok bool
	}
	ask := func(s *Scratch, e int) [2]answer {
		down, derr := en.WhatIfLinkDown(e)
		weight, werr := en.WhatIfWeight(s, e, 3*en.Weights()[e])
		return [2]answer{{down, derr == nil}, {weight, werr == nil}}
	}
	want := make([][2]answer, m)
	s := en.NewScratch()
	for e := range want {
		want[e] = ask(s, e)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := en.NewScratch()
			for e := range want {
				if got := ask(s, e); got != want[e] {
					t.Errorf("link %d: concurrent what-ifs %+v, sequential %+v", e, got, want[e])
				}
			}
		}()
	}
	wg.Wait()
}
