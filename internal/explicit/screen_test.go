package explicit

import (
	"context"
	"math/rand"
	"testing"
)

// TestScreenExact pins the screen's central claim: TwoSegmentOpt, which
// always screens, must produce bitwise-identical routings, midpoints,
// and pass counts to the unscreened search — the screen only skips
// evaluations that provably cannot be accepted.
func TestScreenExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ctx := context.Background()
	screenedTotal := 0
	for trial := 0; trial < 10; trial++ {
		g, w, tm := randInstance(t, rng, 5+rng.Intn(6), rng.Intn(6))
		uf, err := BuildUnitFlows(g, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		off, err := TwoSegmentOpt(ctx, uf, tm, SROptions{Segments: 2, unscreened: true})
		if err != nil {
			t.Fatal(err)
		}
		on, err := TwoSegmentOpt(ctx, uf, tm, SROptions{Segments: 2})
		if err != nil {
			t.Fatal(err)
		}
		if on.MLU != off.MLU || on.Detoured != off.Detoured || on.Passes != off.Passes {
			t.Fatalf("trial %d: screen changed the outcome: MLU %v/%v detoured %d/%d passes %d/%d",
				trial, on.MLU, off.MLU, on.Detoured, off.Detoured, on.Passes, off.Passes)
		}
		for i := range on.Midpoint {
			if on.Midpoint[i] != off.Midpoint[i] {
				t.Fatalf("trial %d: demand %d midpoint %d vs %d", trial, i, on.Midpoint[i], off.Midpoint[i])
			}
		}
		for e, v := range on.Flow.Total {
			if v != off.Flow.Total[e] {
				t.Fatalf("trial %d: flow differs on link %d: %v vs %v", trial, e, v, off.Flow.Total[e])
			}
		}
		if off.Screened != 0 {
			t.Fatalf("trial %d: unscreened run reported %d screened candidates", trial, off.Screened)
		}
		screenedTotal += on.Screened
	}
	if screenedTotal == 0 {
		t.Fatal("screen never pruned a candidate across 10 trials — the fast path is untested")
	}
}

// TestScreenSupport checks the support bitsets against the unit-flow
// vectors they summarize.
func TestScreenSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g, w, tm := randInstance(t, rng, 8, 4)
	uf, err := BuildUnitFlows(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = tm
	n := g.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			unit, supp := uf.Unit(s, d), uf.Support(s, d)
			if (unit == nil) != (supp == nil) {
				t.Fatalf("pair %d->%d: unit nil=%v but support nil=%v", s, d, unit == nil, supp == nil)
			}
			if unit == nil {
				continue
			}
			for e, v := range unit {
				got := supp[e/64]&(1<<(e%64)) != 0
				if got != (v > 0) {
					t.Fatalf("pair %d->%d link %d: support bit %v, unit flow %v", s, d, e, got, v)
				}
			}
		}
	}
}
