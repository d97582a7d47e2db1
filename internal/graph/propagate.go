package graph

import (
	"fmt"
	"math"
)

// DownwardDAG builds the DAG of every "downward" link toward dst: links
// (u,v) whose head is strictly closer to the destination than the tail
// (dist[v] < dist[u]). This is the forwarding structure of downward PEFT
// (Xu-Chiang-Rexford), a superset of the shortest-path DAG.
func DownwardDAG(g *Graph, weights []float64, dst int) (*DAG, error) {
	sp, err := DijkstraTo(g, weights, dst)
	if err != nil {
		return nil, err
	}
	d := &DAG{
		Dst:  dst,
		Dist: sp.Dist,
		Out:  make([][]int, g.NumNodes()),
		Tol:  math.Inf(1),
	}
	buildDAG(g, weights, d, sp.settled, true, 0)
	return d, nil
}

// DownwardDAG is the workspace-backed form of the package-level
// DownwardDAG. The returned DAG shares workspace storage and is valid
// until the next call on ws; Clone it to retain it.
func (ws *Workspace) DownwardDAG(g *Graph, weights []float64, dst int) (*DAG, error) {
	sp, err := ws.DijkstraTo(g, weights, dst)
	if err != nil {
		return nil, err
	}
	d := &ws.dag
	d.Dst, d.Dist, d.Tol = dst, sp.Dist, math.Inf(1)
	buildDAG(g, weights, d, sp.settled, true, 0)
	return d, nil
}

// exactExp is math.Exp answering exp(±0) = 1 without the call, and
// exactLog is math.Log answering log(1) = +0 likewise: the values math
// returns there, so both are bit-identical to math. In
// exponentialSplits every node's largest term, and so every lone
// successor's sum and ratio, hits these arguments exactly.
func exactExp(x float64) float64 {
	if x == 0 {
		return 1
	}
	return math.Exp(x)
}

func exactLog(x float64) float64 {
	if x == 1 {
		return 0
	}
	return math.Log(x)
}

// exponentialSplits is the shared kernel behind ExponentialSplits and
// its workspace form: ratio (length NumLinks) and logZ (length NumNodes)
// are fully overwritten. It performs no allocation.
func exponentialSplits(g *Graph, d *DAG, cost, ratio, logZ []float64) {
	for i := range ratio {
		ratio[i] = 0
	}
	for i := range logZ {
		logZ[i] = math.Inf(-1)
	}
	logZ[d.Dst] = 0
	nodes := d.NodesDescending() // destination last
	for i := len(nodes) - 1; i >= 0; i-- {
		u := nodes[i]
		if u == d.Dst || len(d.Out[u]) == 0 {
			continue
		}
		maxTerm := math.Inf(-1)
		for _, id := range d.Out[u] {
			if t := -cost[id] + logZ[g.links[id].To]; t > maxTerm {
				maxTerm = t
			}
		}
		var sum float64
		for _, id := range d.Out[u] {
			sum += exactExp(-cost[id] + logZ[g.links[id].To] - maxTerm)
		}
		logZ[u] = maxTerm + exactLog(sum)
	}
	for _, u := range nodes {
		if u == d.Dst {
			continue
		}
		for _, id := range d.Out[u] {
			ratio[id] = exactExp(-cost[id] + logZ[g.links[id].To] - logZ[u])
		}
	}
}

// ExponentialSplits computes, for every DAG link, the exponentially
// penalized split ratio
//
//	ratio(u->j) = e^(-cost_uj) * Z(j) / Z(u),
//	Z(dst) = 1,  Z(u) = sum_{(u,j) in DAG} e^(-cost_uj) Z(j),
//
// where Z(u) equals the sum of e^(-cost(path)) over all DAG paths from u
// to the destination. Computed in O(E) by recursion over the DAG in
// log-space (returned as logZ) to tolerate large costs and path counts.
//
// With cost = the SPEF second weights on the equal-cost DAG this is the
// paper's Eq. (22); with cost = the PEFT extra-length penalty on the
// downward DAG it is PEFT's flow split; with cost = 0 it splits by path
// count. It allocates fresh result slices; iterative callers use
// Workspace.ExponentialSplits.
func ExponentialSplits(g *Graph, d *DAG, cost []float64) (ratio, logZ []float64) {
	ratio = make([]float64, g.NumLinks())
	logZ = make([]float64, g.NumNodes())
	exponentialSplits(g, d, cost, ratio, logZ)
	return ratio, logZ
}

// ExponentialSplits is the workspace-backed form of the package-level
// ExponentialSplits: bit-identical ratios, zero allocation in steady
// state. The returned slices share workspace storage and are valid
// until the next call on ws.
func (ws *Workspace) ExponentialSplits(g *Graph, d *DAG, cost []float64) (ratio, logZ []float64) {
	ws.fit(g)
	exponentialSplits(g, d, cost, ws.ratio, ws.logZ)
	return ws.ratio, ws.logZ
}

// EvenSplitsInto overwrites ratio (length NumLinks) with OSPF's even
// equal-cost split: every DAG out-link of a node carries 1/outdegree,
// every other link 0. Every ECMP router, evaluator and unit-flow table
// calls it, so their ratios agree bit for bit.
func EvenSplitsInto(g *Graph, d *DAG, ratio []float64) {
	for i := range ratio {
		ratio[i] = 0
	}
	for u := 0; u < g.NumNodes(); u++ {
		outs := d.Out[u]
		for _, id := range outs {
			ratio[id] = 1 / float64(len(outs))
		}
	}
}

// propagateDown is the shared kernel behind PropagateDown and
// PropagateDownInto: it overwrites flow (length NumLinks) with the
// per-link volumes of this commodity, using acc (length NumNodes) as
// the per-node accumulator. It performs no allocation on success.
func propagateDown(g *Graph, d *DAG, demand, ratio, flow, acc []float64) error {
	for i := range flow {
		flow[i] = 0
	}
	for s, v := range demand {
		if v < 0 {
			return fmt.Errorf("graph: negative demand %v at node %d", v, s)
		}
		if v > 0 && d.Dist[s] == Unreachable {
			return fmt.Errorf("graph: demand at node %d cannot reach destination %d", s, d.Dst)
		}
		acc[s] = v
	}
	for _, u := range d.NodesDescending() {
		if u == d.Dst || acc[u] == 0 {
			continue
		}
		var sum float64
		for _, id := range d.Out[u] {
			sum += ratio[id]
		}
		// Negated so a NaN sum fails the check too.
		if !(math.Abs(sum-1) <= 1e-6) {
			return fmt.Errorf("graph: split ratios at node %d sum to %v toward destination %d", u, sum, d.Dst)
		}
		for _, id := range d.Out[u] {
			amt := acc[u] * ratio[id]
			flow[id] += amt
			acc[g.links[id].To] += amt
		}
	}
	return nil
}

// checkPropagate validates the demand and ratio vector shapes shared by
// both propagation entry points.
func checkPropagate(g *Graph, demand, ratio []float64) error {
	if len(demand) != g.NumNodes() {
		return fmt.Errorf("graph: demand vector has %d entries for %d nodes", len(demand), g.NumNodes())
	}
	if len(ratio) != g.NumLinks() {
		return fmt.Errorf("graph: ratio vector has %d entries for %d links", len(ratio), g.NumLinks())
	}
	return nil
}

// PropagateDown pushes a per-source demand vector (demand[s] = traffic
// entering at s destined to the DAG's destination) down the DAG using
// the given per-link split ratios: ratio[id] is the fraction of the
// traffic accumulated at the link's tail that the tail forwards on link
// id. For every node with traffic, the ratios of its DAG out-links must
// sum to 1 (within 1e-6). Returns the per-link flow of this commodity.
//
// This is the common engine of the paper's Algorithm 3
// (TrafficDistribution), OSPF's even ECMP split, and PEFT's exponential
// split: they differ only in how the ratios are computed. It allocates
// a fresh flow vector; iterative callers use
// Workspace.PropagateDownInto.
func PropagateDown(g *Graph, d *DAG, demand []float64, ratio []float64) ([]float64, error) {
	if err := checkPropagate(g, demand, ratio); err != nil {
		return nil, err
	}
	flow := make([]float64, g.NumLinks())
	acc := make([]float64, g.NumNodes())
	if err := propagateDown(g, d, demand, ratio, flow, acc); err != nil {
		return nil, err
	}
	return flow, nil
}

// PropagateDownInto is the workspace-backed form of PropagateDown: it
// overwrites flow (length NumLinks, typically a per-commodity vector
// the caller retains) with bit-identical volumes and allocates nothing
// in steady state — the per-node accumulator comes from the workspace
// and the DAG's cached node order replaces the per-call sort.
func (ws *Workspace) PropagateDownInto(g *Graph, d *DAG, demand, ratio, flow []float64) error {
	if err := checkPropagate(g, demand, ratio); err != nil {
		return err
	}
	if len(flow) != g.NumLinks() {
		return fmt.Errorf("graph: flow vector has %d entries for %d links", len(flow), g.NumLinks())
	}
	ws.fit(g)
	// acc needs no pre-zeroing: the demand loop in propagateDown writes
	// every entry before the propagation pass reads any.
	return propagateDown(g, d, demand, ratio, flow, ws.acc)
}
