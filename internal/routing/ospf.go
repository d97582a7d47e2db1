package routing

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/traffic"
)

// InvCapWeights returns Cisco-style inverse-capacity OSPF weights,
// normalized so the largest link gets weight 1: w_e = max{c}/c_e.
func InvCapWeights(g *graph.Graph) []float64 {
	var maxCap float64
	for _, l := range g.Links() {
		if l.Cap > maxCap {
			maxCap = l.Cap
		}
	}
	w := make([]float64, g.NumLinks())
	for _, l := range g.Links() {
		w[l.ID] = maxCap / l.Cap
	}
	return w
}

// OSPF is OSPF forwarding state: shortest-path DAGs under the configured
// weights with even traffic splitting across the equal-cost next hops of
// every router (the ECMP behaviour the paper evaluates against).
type OSPF struct {
	G *graph.Graph
	// W is the configured weight vector.
	W []float64
	// DAGs maps each destination to its equal-cost shortest-path DAG.
	DAGs map[int]*graph.DAG
	// Splits[t][id] is the even ECMP ratio of link id toward t.
	Splits map[int][]float64
}

// BuildOSPF assembles OSPF state for the given destinations. weights nil
// selects InvCap. tol is the equal-cost Dijkstra tolerance (0 = exact).
func BuildOSPF(g *graph.Graph, dests []int, weights []float64, tol float64) (*OSPF, error) {
	if weights == nil {
		weights = InvCapWeights(g)
	}
	if len(weights) != g.NumLinks() {
		return nil, fmt.Errorf("%w: got %d weights for %d links", ErrBadInput, len(weights), g.NumLinks())
	}
	dags, splits, err := Build(g, dests, func(ws *graph.Workspace, t int, ratio []float64) (*graph.DAG, error) {
		d, err := ws.BuildDAG(g, weights, t, tol)
		if err != nil {
			return nil, err
		}
		graph.EvenSplitsInto(g, d, ratio)
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	return &OSPF{G: g, W: append([]float64(nil), weights...), DAGs: dags, Splits: splits}, nil
}

// Flow evaluates the deterministic OSPF/ECMP traffic distribution.
func (o *OSPF) Flow(tm *traffic.Matrix) (*mcf.Flow, error) {
	return Flow(o.G, o.DAGs, o.Splits, tm)
}
