package main

// This file holds the traced runs' view of the layers below the public
// API: the public values rebuilt as the internal structures they wrap,
// and the few steps of the public API's own composition that have no
// exported function, mirrored line for line so the traced run does the
// same work and gets the same bits.

import (
	"fmt"
	"math"

	spef "repro"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/objective"
	"repro/internal/par"
	"repro/internal/traffic"
)

// graphOf rebuilds a public network as the internal graph it wraps:
// the same node names and the same links in ID order.
func graphOf(n *spef.Network) (*graph.Graph, error) {
	g := graph.New(n.NumNodes())
	for v := 0; v < n.NumNodes(); v++ {
		g.SetName(v, n.NodeName(v))
	}
	for id := 0; id < n.NumLinks(); id++ {
		from, to, c := n.Link(id)
		if _, err := g.AddLink(from, to, c); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// matrixOf rebuilds a public demand set as the internal matrix.
func matrixOf(n *spef.Network, d *spef.Demands) (*traffic.Matrix, error) {
	m := traffic.NewMatrix(n.NumNodes())
	for s := 0; s < n.NumNodes(); s++ {
		for t := 0; t < n.NumNodes(); t++ {
			if v := d.At(s, t); v != 0 {
				if err := m.Set(s, t, v); err != nil {
					return nil, err
				}
			}
		}
	}
	return m, nil
}

// layerInput is one (network, demands) pair in both forms.
type layerInput struct {
	net *spef.Network
	dem *spef.Demands
	g   *graph.Graph
	tm  *traffic.Matrix
}

func newLayerInput(n *spef.Network, d *spef.Demands) (layerInput, error) {
	g, err := graphOf(n)
	if err != nil {
		return layerInput{}, err
	}
	tm, err := matrixOf(n, d)
	if err != nil {
		return layerInput{}, err
	}
	return layerInput{net: n, dem: d, g: g, tm: tm}, nil
}

var workspaces graph.WorkspacePool

// propagate is Routes.Evaluate for DAG-backed routes: every destination's
// demand pushed down its DAG under the split ratios.
func propagate(g *graph.Graph, dags map[int]*graph.DAG, splits map[int][]float64, tm *traffic.Matrix) (*mcf.Flow, error) {
	dests := tm.Destinations()
	flow := mcf.NewFlow(g, dests)
	for _, t := range dests {
		if _, ok := dags[t]; !ok {
			return nil, fmt.Errorf("no forwarding state for destination %d", t)
		}
	}
	errs := make([]error, len(dests))
	par.Do(len(dests), func(i int) {
		t := dests[i]
		ws := workspaces.Get(g)
		defer workspaces.Put(ws)
		demand := tm.ToDestinationInto(t, ws.DemandBuffer(g))
		errs[i] = ws.PropagateDownInto(g, dags[t], demand, splits[t], flow.PerDest[t])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	flow.RecomputeTotal()
	return flow, nil
}

// flowSplits is the split-ratio view the public API builds for
// flow-backed routes (optimal and explicit paths).
func flowSplits(g *graph.Graph, flow *mcf.Flow) map[int][]float64 {
	splits := make(map[int][]float64, len(flow.PerDest))
	for t, ft := range flow.PerDest {
		ratio := make([]float64, g.NumLinks())
		for u := 0; u < g.NumNodes(); u++ {
			var out float64
			for _, id := range g.OutLinks(u) {
				out += ft[id]
			}
			if out <= 0 {
				continue
			}
			for _, id := range g.OutLinks(u) {
				ratio[id] = ft[id] / out
			}
		}
		splits[t] = ratio
	}
	return splits
}

// report is the public TrafficReport of a per-link flow.
type report struct {
	flow, util   []float64
	mlu, utility float64
}

func reportOf(g *graph.Graph, total []float64) report {
	return report{
		flow:    append([]float64(nil), total...),
		util:    objective.Utilizations(g, total),
		mlu:     objective.MLU(g, total),
		utility: objective.LogSpareUtility(g, total),
	}
}

// fortzNorm is the public "fortz_norm" metric: Fortz-Thorup cost over
// the cost of hop-shortest routing on uncongested links.
func fortzNorm(g *graph.Graph, tm *traffic.Matrix, rep report) (float64, error) {
	cost := objective.TotalCost(objective.FortzThorup{}, g, rep.flow)
	unit := make([]float64, g.NumLinks())
	for i := range unit {
		unit[i] = 1
	}
	ws := workspaces.Get(g)
	defer workspaces.Put(ws)
	var uncap float64
	for _, t := range tm.Destinations() {
		sp, err := ws.DijkstraTo(g, unit, t)
		if err != nil {
			return 0, err
		}
		for s := 0; s < g.NumNodes(); s++ {
			v := tm.At(s, t)
			if v <= 0 {
				continue
			}
			if sp.Dist[s] == graph.Unreachable {
				return math.Inf(1), nil
			}
			uncap += v * sp.Dist[s]
		}
	}
	if uncap == 0 {
		return 0, nil
	}
	return cost / uncap, nil
}
