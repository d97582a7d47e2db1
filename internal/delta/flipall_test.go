package delta

import (
	"math/rand"
	"testing"
)

// TestFailLinksBatchedMatchesSequential: failing a set of links in one
// FailLinks event must land on exactly the state a sequence of
// single-link LinkDown events reaches (set semantics — one remap at the
// end cannot differ from remap-per-flip), and RestoreLinks must undo it
// the same way. Both paths are checked against from-scratch evaluation.
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
// (here: every link at once) must be rejected with the engine restored
// to its pre-event state bit-for-bit, even though some flags were
// already applied when the remap failed.
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
	if err := en.FailLinks(all...); err == nil {
		t.Fatal("failing every link succeeded, want rejection")
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
