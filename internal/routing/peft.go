package routing

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/traffic"
)

// PEFT is downward PEFT forwarding state (Xu, Chiang, Rexford: "Link-
// state routing with hop-by-hop forwarding achieves optimal traffic
// engineering", INFOCOM'08): every *downward* link (head strictly closer
// to the destination) may carry traffic, split with an exponential
// penalty on the extra path length beyond the shortest:
//
//	split(u->v)  propto  e^(-h_uv) * Z(v),
//	h_uv = w_uv + dist(v) - dist(u) >= 0,
//
// so shortest paths get penalty 0 and longer paths are exponentially
// suppressed. Contrast with SPEF, which restricts forwarding to the
// equal-cost shortest DAG and splits by the separate second weights.
type PEFT struct {
	G *graph.Graph
	// W is the link weight vector the penalties derive from.
	W []float64
	// DAGs maps destinations to their downward DAGs.
	DAGs map[int]*graph.DAG
	// Splits[t][id] is the PEFT split ratio of link id toward t.
	Splits map[int][]float64
}

// BuildPEFT assembles PEFT state for the given destinations under the
// given link weights (the paper's comparison supplies both protocols
// with the same optimized first weights).
func BuildPEFT(g *graph.Graph, dests []int, weights []float64) (*PEFT, error) {
	if len(weights) != g.NumLinks() {
		return nil, fmt.Errorf("%w: got %d weights for %d links", ErrBadInput, len(weights), g.NumLinks())
	}
	dags, splits, err := Build(g, dests, func(ws *graph.Workspace, t int, ratio []float64) (*graph.DAG, error) {
		d, err := ws.DownwardDAG(g, weights, t)
		if err != nil {
			return nil, err
		}
		// ratio first holds the penalties h, the cost the split reads on
		// DAG links; the workspace split then overwrites it.
		for u := 0; u < g.NumNodes(); u++ {
			for _, id := range d.Out[u] {
				l := g.Link(id)
				ratio[id] = weights[id] + d.Dist[l.To] - d.Dist[l.From]
			}
		}
		split, _ := ws.ExponentialSplits(g, d, ratio)
		copy(ratio, split)
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	return &PEFT{G: g, W: append([]float64(nil), weights...), DAGs: dags, Splits: splits}, nil
}

// Flow evaluates the deterministic PEFT traffic distribution.
func (p *PEFT) Flow(tm *traffic.Matrix) (*mcf.Flow, error) {
	return Flow(p.G, p.DAGs, p.Splits, tm)
}
