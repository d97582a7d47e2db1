package localsearch

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/par"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// ospfCost routes tm with the production OSPF engine under w and
// returns the Fortz-Thorup cost and the aggregate flow.
func ospfCost(t *testing.T, g *graph.Graph, tm *traffic.Matrix, w []float64) (float64, []float64) {
	t.Helper()
	o, err := routing.BuildOSPF(g, tm.Destinations(), w, 0)
	if err != nil {
		t.Fatalf("BuildOSPF: %v", err)
	}
	flow, err := o.Flow(tm)
	if err != nil {
		t.Fatalf("OSPF flow: %v", err)
	}
	return objective.TotalCost(objective.FortzThorup{}, g, flow.Total), flow.Total
}

// TestSearchImprovesAndAgreesWithOSPF: the search must never return a
// vector costlier than its start, and the reported cost must equal the
// production OSPF engine's evaluation of the returned weights.
func TestSearchImprovesAndAgreesWithOSPF(t *testing.T) {
	g, tm := randomInstance(t, 7, 12, 44)
	unit := make([]float64, g.NumLinks())
	for i := range unit {
		unit[i] = 1
	}
	startCost, _ := ospfCost(t, g, tm, unit)
	res, err := Search(context.Background(), g, tm, Options{MaxEvals: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > startCost {
		t.Fatalf("search worsened the start: cost %v > initial %v", res.Cost, startCost)
	}
	got, _ := ospfCost(t, g, tm, res.Weights)
	if got != res.Cost {
		t.Fatalf("reported cost %v, OSPF engine evaluates the weights to %v", res.Cost, got)
	}
	if res.Evals > 400 {
		t.Fatalf("search overspent its budget: %d evals > 400", res.Evals)
	}
}

// TestSearchDeterministicAcrossWorkers: the trajectory — and therefore
// the returned weights, cost and eval count — must be bit-identical
// whether candidates are scored sequentially or in parallel.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	g, tm := randomInstance(t, 11, 10, 36)
	run := func() *Result {
		res, err := Search(context.Background(), g, tm, Options{MaxEvals: 300, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	prev := par.SetExtraWorkers(0)
	seq := run()
	par.SetExtraWorkers(8)
	pll := run()
	par.SetExtraWorkers(prev)
	if seq.Cost != pll.Cost || seq.Score != pll.Score || seq.Evals != pll.Evals {
		t.Fatalf("sequential (cost=%v score=%v evals=%d) != parallel (cost=%v score=%v evals=%d)",
			seq.Cost, seq.Score, seq.Evals, pll.Cost, pll.Score, pll.Evals)
	}
	for e := range seq.Weights {
		if seq.Weights[e] != pll.Weights[e] {
			t.Fatalf("weight of link %d: sequential %v, parallel %v", e, seq.Weights[e], pll.Weights[e])
		}
	}
}

// TestSearchRobustScoresFailures: robust search must fold the failures
// into its score, and its result must evaluate on every failure
// variant, built from scratch without the failed links, exactly as the
// search scored it on the intact topology. A failure listing a link
// the topology lacks is bad input.
func TestSearchRobustScoresFailures(t *testing.T) {
	g, tm := randomInstance(t, 13, 10, 40)
	var failures [][]int
	var variants []*graph.Graph
	var keeps [][]int
	for _, pair := range g.DuplexPairs() {
		g2, keep, err := g.WithoutLinks(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if routable(g2, tm) {
			failures = append(failures, []int{pair[0], pair[1]})
			variants = append(variants, g2)
			keeps = append(keeps, keep)
		}
		if len(failures) == 3 {
			break
		}
	}
	if len(failures) == 0 {
		t.Skip("topology has no routable single-link-failure variant")
	}
	res, err := Search(context.Background(), g, tm, Options{MaxEvals: 200, Seed: 3, Failures: failures})
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the robust score of the returned weights from scratch.
	intactCost, _ := ospfCost(t, g, tm, res.Weights)
	var sum float64
	for i, g2 := range variants {
		wf := make([]float64, g2.NumLinks())
		for newID, oldID := range keeps[i] {
			wf[newID] = res.Weights[oldID]
		}
		c, _ := ospfCost(t, g2, tm, wf)
		sum += c
	}
	want := intactCost + sum/float64(len(failures))
	if res.Score != want {
		t.Fatalf("robust score %v, recomputed %v", res.Score, want)
	}
	if res.Cost != intactCost {
		t.Fatalf("intact cost %v, recomputed %v", res.Cost, intactCost)
	}

	for _, bad := range [][]int{{g.NumLinks()}, {0, -1}} {
		_, err := Search(context.Background(), g, tm, Options{MaxEvals: 20, Failures: [][]int{failures[0], bad}})
		if !errors.Is(err, ErrBadInput) {
			t.Errorf("failure listing links %v: err = %v, want ErrBadInput", bad, err)
		}
	}
}

// TestSearchCanceled: a canceled context aborts the search with an
// error wrapping the context's error.
func TestSearchCanceled(t *testing.T) {
	g, tm := randomInstance(t, 17, 10, 36)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, g, tm, Options{MaxEvals: 1000}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search on canceled ctx: err=%v, want wrapped context.Canceled", err)
	}
}
