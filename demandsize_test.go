package spef

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
)

// TestDemandsForAnotherNetworkAreBadInput pairs Abilene's network with
// Fig. 1's 4-node demands and Fig. 1's network with Abilene's demands,
// and hands each pairing to every registered router family and every
// other public function that takes demands with a network or routes.
// No call may panic, and every call must fail with ErrBadInput.
func TestDemandsForAnotherNetworkAreBadInput(t *testing.T) {
	ctx := context.Background()
	fig1Net, fig1Dem, err := Fig1Example()
	if err != nil {
		t.Fatal(err)
	}
	abNet := Abilene()
	abDem, err := FortzThorupDemands(1, abNet)
	if err != nil {
		t.Fatal(err)
	}
	if abDem, err = abDem.ScaledToLoad(abNet, 0.1); err != nil {
		t.Fatal(err)
	}

	// Every registered family, with small budgets, plus the InvCap-based
	// explicit-path variants and the fixed-weight routers.
	var specs []string
	for _, doc := range testCatalog(t).Routers {
		spec := doc.Name
		for _, p := range doc.Params {
			if p.Name == "iters" {
				spec += ":iters=20"
			}
		}
		specs = append(specs, spec)
	}
	specs = append(specs, "sr:base=invcap", "mpls-ksp:base=invcap", "mpls-ksp:base=invcap,colgen=on")

	sim := SimulationConfig{CapacityBitsPerUnit: 1e3, DurationSeconds: 1}
	for _, pair := range []struct {
		name       string
		net, other *Network
		good, bad  *Demands
	}{
		{"abilene network, fig1 demands", abNet, fig1Net, abDem, fig1Dem},
		{"fig1 network, abilene demands", fig1Net, abNet, fig1Dem, abDem},
	} {
		n, good, bad := pair.net, pair.good, pair.bad
		calls := map[string]func() error{
			"Optimize": func() error { _, err := Optimize(ctx, n, bad, WithMaxIterations(20)); return err },
			"MinMLU":   func() error { _, err := MinMLU(n, bad); return err },
			"NewDeltaEngine": func() error {
				_, err := NewDeltaEngine(n, bad, nil)
				return err
			},
			"RankCriticalLinks": func() error {
				_, err := RankCriticalLinks(ctx, n, bad, CriticalLinksOptions{})
				return err
			},
			"WriteNetworkAndDemands": func() error { return WriteNetworkAndDemands(io.Discard, n, bad) },
			"SPEFWithWeights": func() error {
				w := make([]float64, n.NumLinks())
				for e := range w {
					w[e] = 1
				}
				_, err := SPEFWithWeights(w, w).Routes(ctx, n, bad)
				return err
			},
			"OSPF(weights)": func() error { _, err := OSPF(InvCapWeights(n)).Routes(ctx, n, bad); return err },
		}
		for _, spec := range specs {
			r, err := ResolveRouter(spec, 0)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			calls["router "+spec] = func() error { _, err := r.Routes(ctx, n, bad); return err }
		}
		// Routes and a protocol computed for the network's own demands,
		// then handed the other network's.
		for _, r := range []Router{OSPF(nil), Optimal(WithMaxIterations(20))} {
			routes, err := r.Routes(ctx, n, good)
			if err != nil {
				t.Fatalf("%s on %s: %v", r.Name(), pair.name, err)
			}
			calls[r.Name()+" Routes.Evaluate"] = func() error { _, err := routes.Evaluate(bad); return err }
			calls[r.Name()+" Routes.Simulate"] = func() error { _, err := routes.Simulate(bad, sim); return err }
		}
		p, err := Optimize(ctx, n, good, WithMaxIterations(20))
		if err != nil {
			t.Fatal(err)
		}
		calls["Protocol.Evaluate"] = func() error { _, err := p.Evaluate(bad); return err }
		calls["Protocol.Simulate"] = func() error { _, err := p.Simulate(bad, sim); return err }

		for name, call := range calls {
			err := func() (err error) {
				defer func() {
					if v := recover(); v != nil {
						err = fmt.Errorf("panic: %v", v)
					}
				}()
				return call()
			}()
			if !errors.Is(err, ErrBadInput) {
				t.Errorf("%s: %s: err = %v, want ErrBadInput", pair.name, name, err)
			}
		}
	}
}
