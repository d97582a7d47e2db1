package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/objective"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// Options configures the full SPEF pipeline (Algorithm 4).
type Options struct {
	// First tunes Algorithm 1.
	First FirstWeightOptions
	// Second tunes Algorithm 2.
	Second SecondWeightOptions
}

// Protocol is a fully built SPEF routing state: the first and second
// link weights, the per-destination shortest-path DAGs, and the
// exponential split ratios every router applies independently.
type Protocol struct {
	G *graph.Graph
	// Dests lists the destinations with forwarding state.
	Dests []int
	// W is the first link weight vector (drives shortest paths).
	W []float64
	// V is the second link weight vector (drives flow splitting).
	V []float64
	// DAGs holds the equal-cost shortest-path DAG per destination.
	DAGs map[int]*graph.DAG
	// Splits[t][id] is the fraction of traffic for destination t that the
	// tail of link id forwards over it (Eq. 22).
	Splits map[int][]float64
	// First and Second expose the optimization diagnostics.
	First  *FirstWeightResult
	Second *SecondWeightResult
}

// Build runs the complete SPEF pipeline (paper Algorithm 4) for the given
// network, traffic matrix, and (q,beta) objective:
// Algorithm 1 -> per-destination Dijkstra DAGs (BuildWithWeights's
// automatic equal-cost tolerance) -> Algorithm 2.
// Cancelling ctx aborts whichever stage is running with the context's
// error.
func Build(ctx context.Context, g *graph.Graph, tm *traffic.Matrix, obj *objective.QBeta, opts Options) (*Protocol, error) {
	first, err := FirstWeights(ctx, g, tm, obj, opts.First)
	if err != nil {
		return nil, fmt.Errorf("core: algorithm 1: %w", err)
	}
	p, err := BuildWithWeights(ctx, g, tm, first.W, first.Flow, 0, opts.Second)
	if err != nil {
		return nil, err
	}
	p.First = first
	return p, nil
}

// EqualCostTol is the paper's equal-cost Dijkstra tolerance for first
// weights w: 0.3 in the weight space normalized to the smallest weight,
// that is 0.3 times the smallest weight. It is 0 when that product is
// not a finite non-negative number (no weights, or an infinite or
// negative smallest weight).
func EqualCostTol(w []float64) float64 {
	minW := math.Inf(1)
	for _, x := range w {
		if x < minW {
			minW = x
		}
	}
	tol := 0.3 * minW
	if math.IsInf(tol, 0) || math.IsNaN(tol) || tol < 0 {
		return 0
	}
	return tol
}

// BuildWithWeights assembles SPEF forwarding state from externally
// supplied first weights and the optimal traffic distribution: it builds
// the shortest-path DAGs under w (with the given equal-cost tolerance, 0
// = EqualCostTol(w)) and runs Algorithm 2 for the second weights against the
// distribution's per-link budget. The per-destination tolerance widens
// automatically until the DAG covers every link the optimal distribution
// uses for that destination — Theorem 3.1 guarantees those links are on
// shortest paths at the exact optimum, so the widening only absorbs
// numerical slack (and rounding error for the integer-weight study of
// Fig. 13, which enters here).
func BuildWithWeights(ctx context.Context, g *graph.Graph, tm *traffic.Matrix, w []float64, flow *mcf.Flow, tol float64, sopts SecondWeightOptions) (*Protocol, error) {
	if len(w) != g.NumLinks() {
		return nil, fmt.Errorf("%w: got %d weights for %d links", ErrBadInput, len(w), g.NumLinks())
	}
	if flow == nil || len(flow.Total) != g.NumLinks() {
		return nil, fmt.Errorf("%w: optimal flow missing or sized wrong", ErrBadInput)
	}
	if tol == 0 {
		tol = EqualCostTol(w)
	}
	budget := flow.Total
	var maxBudget float64
	for _, b := range budget {
		if b > maxBudget {
			maxBudget = b
		}
	}
	coverEps := 1e-6 * maxBudget
	dests := tm.Destinations()
	// Algorithm 2 needs the DAGs and the splits need its second weights,
	// so Build leaves the split vectors zeroed; they are filled below.
	dags, splits, err := routing.Build(g, dests, func(ws *graph.Workspace, t int, _ []float64) (*graph.DAG, error) {
		tolT := tol
		if ft, ok := flow.PerDest[t]; ok {
			sp, err := ws.DijkstraTo(g, w, t)
			if err != nil {
				return nil, err
			}
			for e, fe := range ft {
				if fe <= coverEps {
					continue
				}
				l := g.Link(e)
				if sp.Dist[l.From] == graph.Unreachable || sp.Dist[l.To] == graph.Unreachable {
					continue
				}
				if rc := sp.Dist[l.To] + w[e] - sp.Dist[l.From]; rc > tolT {
					tolT = rc*1.01 + 1e-12
				}
			}
		}
		return ws.BuildDAG(g, w, t, tolT)
	})
	if err != nil {
		return nil, fmt.Errorf("core: shortest-path DAGs: %w", err)
	}
	second, err := SecondWeights(ctx, g, tm, dags, budget, sopts)
	if err != nil {
		return nil, fmt.Errorf("core: algorithm 2: %w", err)
	}
	ws := workspaces.Get(g)
	defer workspaces.Put(ws)
	for _, t := range dests {
		ratio, _ := ws.ExponentialSplits(g, dags[t], second.V)
		copy(splits[t], ratio)
	}
	return &Protocol{
		G:      g,
		Dests:  dests,
		W:      append([]float64(nil), w...),
		V:      second.V,
		DAGs:   dags,
		Splits: splits,
		Second: second,
	}, nil
}

// Flow evaluates the deterministic traffic distribution SPEF induces for
// the demand matrix (which must route only to destinations the protocol
// has forwarding state for).
func (p *Protocol) Flow(tm *traffic.Matrix) (*mcf.Flow, error) {
	flow, err := routing.Flow(p.G, p.DAGs, p.Splits, tm)
	if errors.Is(err, routing.ErrBadInput) {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return flow, err
}

// NextHopEntry is one row of the SPEF forwarding table (paper Table II):
// an equal-cost next hop together with the second-weight lengths of the
// shortest paths that traverse it and the resulting split ratio.
type NextHopEntry struct {
	// Link is the out-link this entry forwards on.
	Link int
	// NextHop is the link's head node.
	NextHop int
	// PathLengths lists the lengths, in second-weight units, of the
	// equal-cost shortest paths through this next hop (truncated to the
	// enumeration limit).
	PathLengths []float64
	// Ratio is the traffic fraction Gamma_t(s, NextHop) of Eq. (22).
	Ratio float64
}

// ForwardingTable is the SPEF forwarding state of one (node, destination)
// pair in the layout of the paper's Table II.
type ForwardingTable struct {
	Node    int
	Dst     int
	Entries []NextHopEntry
}

// maxTablePaths bounds per-next-hop path enumeration in forwarding-table
// rendering.
const maxTablePaths = 64

// ForwardingTable renders the Table II forwarding state for a node and
// destination. Entries are sorted by descending ratio.
func (p *Protocol) ForwardingTable(node, dst int) (*ForwardingTable, error) {
	d, ok := p.DAGs[dst]
	if !ok {
		return nil, fmt.Errorf("%w: no forwarding state for destination %d", ErrBadInput, dst)
	}
	if node < 0 || node >= p.G.NumNodes() {
		return nil, fmt.Errorf("%w: node %d out of range", ErrBadInput, node)
	}
	ft := &ForwardingTable{Node: node, Dst: dst}
	ratio := p.Splits[dst]
	for _, id := range d.Out[node] {
		head := p.G.Link(id).To
		entry := NextHopEntry{Link: id, NextHop: head, Ratio: ratio[id]}
		if head == dst {
			entry.PathLengths = []float64{p.V[id]}
		} else {
			for _, path := range graph.EnumeratePaths(p.G, d, head, maxTablePaths) {
				entry.PathLengths = append(entry.PathLengths, p.V[id]+path.Length(p.V))
			}
		}
		sort.Float64s(entry.PathLengths)
		ft.Entries = append(ft.Entries, entry)
	}
	sort.Slice(ft.Entries, func(i, j int) bool { return ft.Entries[i].Ratio > ft.Entries[j].Ratio })
	return ft, nil
}

// IntegerWeights converts real first weights into the integer weights an
// OSPF implementation can carry (Section V-G): w' = round(w * max{s}),
// normalizing so the maximum-spare link gets weight 1, clamped below at
// 1. It returns the integer weights and the scale factor max{s}.
func IntegerWeights(w, spare []float64) ([]float64, float64, error) {
	if len(w) != len(spare) {
		return nil, 0, fmt.Errorf("%w: %d weights vs %d spares", ErrBadInput, len(w), len(spare))
	}
	var maxSpare float64
	for _, s := range spare {
		if s > maxSpare {
			maxSpare = s
		}
	}
	if maxSpare <= 0 {
		return nil, 0, fmt.Errorf("%w: no link has positive spare capacity", ErrBadInput)
	}
	out := make([]float64, len(w))
	for e, x := range w {
		out[e] = math.Max(1, math.Round(x*maxSpare))
	}
	return out, maxSpare, nil
}
