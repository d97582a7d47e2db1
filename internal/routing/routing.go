// Package routing owns per-destination forwarding state: one DAG per
// destination plus per-link split ratios, the shape OSPF/ECMP, downward
// PEFT and SPEF (Theorem 3.1, Eq. 22) share. Build assembles that state
// in parallel from a callback that fills one destination; OSPF, PEFT,
// core.BuildWithWeights and the public fixed-weight SPEF router use it.
// Flow propagates a demand matrix over stored state for OSPF, PEFT,
// core.Protocol and the public Routes. On top of the two, the package
// implements the baselines the paper compares SPEF against: OSPF with
// Cisco InvCap weights and even ECMP splitting (Section V's "current
// version of OSPF"), and downward PEFT (Xu-Chiang-Rexford INFOCOM'08)
// with penalizing-exponential splitting over all downward paths.
package routing

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/par"
	"repro/internal/traffic"
)

// ErrBadInput reports inconsistent arguments.
var ErrBadInput = errors.New("routing: bad input")

// workspaces recycles per-worker graph scratch across state builds;
// each parallel destination worker draws a private arena.
var workspaces graph.WorkspacePool

// Build assembles per-destination forwarding state for dests. For every
// destination t, state builds t's DAG on the private workspace ws (the
// DAG may share ws's storage; Build clones it) and writes the per-link
// split ratios toward t into ratio, a zeroed vector of length NumLinks
// that Build keeps as t's splits. Destinations run on parallel workers,
// and a failure reports the first failing destination in dests order,
// so the result is the same for any worker count.
func Build(g *graph.Graph, dests []int, state func(ws *graph.Workspace, t int, ratio []float64) (*graph.DAG, error)) (map[int]*graph.DAG, map[int][]float64, error) {
	built := make([]*graph.DAG, len(dests))
	ratios := make([][]float64, len(dests))
	errs := make([]error, len(dests))
	par.Do(len(dests), func(i int) {
		ws := workspaces.Get(g)
		defer workspaces.Put(ws)
		ratio := make([]float64, g.NumLinks())
		d, err := state(ws, dests[i], ratio)
		if err != nil {
			errs[i] = fmt.Errorf("routing: destination %d: %w", dests[i], err)
			return
		}
		built[i], ratios[i] = d.Clone(), ratio
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	dags := make(map[int]*graph.DAG, len(dests))
	splits := make(map[int][]float64, len(dests))
	for i, t := range dests {
		dags[t], splits[t] = built[i], ratios[i]
	}
	return dags, splits, nil
}

// Flow evaluates the deterministic traffic distribution that the
// per-destination DAGs and split ratios induce for tm: the paper's
// Algorithm 3, shared by every scheme, which differ only in their
// ratios. The independent destinations fan out in one pass over a
// fresh flow's table (mcf.Flow.Propagate), so results are bit-identical
// to the sequential loop for any worker count. A demand toward a
// destination without state fails with ErrBadInput.
func Flow(g *graph.Graph, dags map[int]*graph.DAG, splits map[int][]float64, tm *traffic.Matrix) (*mcf.Flow, error) {
	flow := mcf.NewFlow(g, tm.Destinations())
	err := flow.Propagate(g, tm, dags, splits, nil)
	switch {
	case errors.Is(err, mcf.ErrBadInput):
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	case err != nil:
		return nil, err
	}
	return flow, nil
}
