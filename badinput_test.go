package spef

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mcf"
)

// TestBadInputIsErrBadInput: every public call that rejects its
// arguments does so with ErrBadInput, whichever internal layer finds
// the fault — Algorithm 1 on an empty or mis-parameterized demand set,
// forwarding state missing for a destination or node, the simulator's
// config check and the delta engine's event checks.
func TestBadInputIsErrBadInput(t *testing.T) {
	ctx := t.Context()
	top, err := ResolveTopology("abilene")
	if err != nil {
		t.Fatal(err)
	}
	n, d := top.Network, top.Demands
	empty := NewDemands(n)
	// SPEF state toward destination 1 only, and demands toward 5.
	toOne, toFive := NewDemands(n), NewDemands(n)
	if err := toOne.Add(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := toFive.Add(0, 5, 1); err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(ctx, n, toOne, WithMaxIterations(100), WithSplitIterations(50))
	if err != nil {
		t.Fatal(err)
	}
	sim := SimulationConfig{CapacityBitsPerUnit: 1e6, DurationSeconds: 1}
	en, err := NewDeltaEngine(n, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := en.NewScratch()
	// Links 0 and 1 down leave link 2 the last way out for a demand.
	if err := en.LinkDown(0); err != nil {
		t.Fatal(err)
	}
	if err := en.LinkDown(1); err != nil {
		t.Fatal(err)
	}
	wrongSize := NewDemands(Cernet2())

	cases := map[string]func() error{
		"Optimize, all-zero demands": func() error { _, err := Optimize(ctx, n, empty); return err },
		"Optimize, negative beta":    func() error { _, err := Optimize(ctx, n, d, WithBeta(-1)); return err },
		"Optimal, negative beta": func() error {
			_, err := Optimal(WithBeta(-1)).Routes(ctx, n, d)
			return err
		},
		"PEFT(nil), negative beta": func() error {
			_, err := PEFT(nil, WithBeta(-1)).Routes(ctx, n, d)
			return err
		},
		"PEFT(nil), all-zero demands": func() error {
			_, err := PEFT(nil).Routes(ctx, n, empty)
			return err
		},
		"ForwardingTable, uncovered destination": func() error { _, err := p.ForwardingTable(0, 5); return err },
		"ForwardingTable, node out of range":     func() error { _, err := p.ForwardingTable(-1, 1); return err },
		"Protocol.Evaluate, uncovered destination": func() error {
			_, err := p.Evaluate(toFive)
			return err
		},
		"Protocol.EqualCostPaths, uncovered destination": func() error {
			_, err := p.EqualCostPaths(0, 5)
			return err
		},
		"Protocol.SplitRatios, uncovered destination": func() error {
			_, err := p.SplitRatios(5)
			return err
		},
		"Protocol.Simulate, uncovered destination": func() error {
			_, err := p.Simulate(toFive, sim)
			return err
		},
		"Routes.Simulate, uncovered destination": func() error {
			_, err := p.Routes().Simulate(toFive, sim)
			return err
		},
		"Routes.Simulate, no capacity unit": func() error {
			_, err := p.Routes().Simulate(toOne, SimulationConfig{})
			return err
		},
		"NewDeltaEngine, short weights":       func() error { _, err := NewDeltaEngine(n, d, []float64{1}); return err },
		"DeltaEngine.SetWeight, unknown link": func() error { return en.SetWeight(999, 1) },
		"DeltaEngine.SetWeight, NaN":          func() error { return en.SetWeight(3, math.NaN()) },
		"DeltaEngine.LinkDown, stranding":     func() error { return en.LinkDown(2) },
		"DeltaEngine.LinkDown, already down":  func() error { return en.LinkDown(0) },
		"DeltaEngine.LinkUp, not down":        func() error { return en.LinkUp(2) },
		"DeltaEngine.SetDemand, unknown node": func() error { return en.SetDemand(-1, 0, 1) },
		"DeltaEngine.StepDemands, wrong size": func() error { return en.StepDemands(wrongSize) },
		"DeltaEngine.WhatIfWeight, unknown link": func() error {
			_, err := en.WhatIfWeight(s, 999, 1)
			return err
		},
		"DeltaEngine.WhatIfDemand, unknown node": func() error {
			_, err := en.WhatIfDemand(s, -1, 0, 1)
			return err
		},
		"DeltaEngine.WhatIfLinkDown, stranding": func() error {
			_, err := en.WhatIfLinkDown(2)
			return err
		},
		"DeltaEngine.WhatIfLinkUp, unknown link": func() error {
			_, err := en.WhatIfLinkUp(999)
			return err
		},
	}
	for name, call := range cases {
		if err := call(); !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: err = %v, want ErrBadInput", name, err)
		}
	}
}

// TestInfeasibleIsNotBadInput: a load no routing can carry is not an
// argument fault; Optimize keeps mcf.ErrInfeasible, which Fig. 10 reads
// from its SPEF cells.
func TestInfeasibleIsNotBadInput(t *testing.T) {
	top, err := ResolveTopology("abilene")
	if err != nil {
		t.Fatal(err)
	}
	d, err := top.Demands.ScaledToLoad(top.Network, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Optimize(t.Context(), top.Network, d, WithMaxIterations(50))
	if !errors.Is(err, mcf.ErrInfeasible) || errors.Is(err, ErrBadInput) {
		t.Errorf("err = %v, want mcf.ErrInfeasible and not ErrBadInput", err)
	}
}
