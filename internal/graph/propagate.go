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
// calls it or EvenSplitsAt, so their ratios agree bit for bit.
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

// EvenSplitsAt re-derives the even split at the listed nodes only — the
// nodes whose Out lists a repair changed (Workspace.OutChanged) — after
// which ratio equals EvenSplitsInto's bit for bit, provided it did
// before the repair. Each graph out-link of a listed node gets
// 1/outdegree if it is in the node's Out list and 0 if not; a link
// outside the list that still carries flow gets flow 0 and is added to
// marks (non-nil), so that flow is again zero on every link outside d,
// as the in-place propagation (Workspace.PropagateDownMarked) requires.
// d's Out lists must increase by link ID, as BuildDAG and RepairDAG
// leave them.
func EvenSplitsAt(g *Graph, d *DAG, nodes []int, ratio, flow []float64, marks *Marks) {
	for _, u := range nodes {
		outs := d.Out[u]
		r := 1 / float64(len(outs)) // EvenSplitsInto's ratio; unread when outs is empty
		k := 0
		for _, id := range g.out[u] { // both lists increase by link ID
			if k < len(outs) && outs[k] == id {
				ratio[id] = r
				k++
				continue
			}
			ratio[id] = 0
			if math.Float64bits(flow[id]) != 0 {
				flow[id] = 0
				marks.Add(id)
			}
		}
	}
}

// Marks is a set of link IDs: a flag per link and the IDs in the order
// they were first added. The in-place kernels add every link whose flow
// they changed, and the incremental evaluator re-sums just those links.
type Marks struct {
	on  []bool
	ids []int
}

// Reset empties the set and sizes it for link IDs 0..links-1,
// allocating only when that count changes.
func (m *Marks) Reset(links int) {
	if len(m.on) == links {
		m.Clear()
		return
	}
	m.on = make([]bool, links)
	m.ids = make([]int, 0, links)
}

// Add adds link id, once.
func (m *Marks) Add(id int) {
	if !m.on[id] {
		m.on[id] = true
		m.ids = append(m.ids, id)
	}
}

// IDs returns the marked link IDs in the order they were added, valid
// until the set next changes.
func (m *Marks) IDs() []int { return m.ids }

// Clear empties the set in time proportional to its size.
func (m *Marks) Clear() {
	for _, id := range m.ids {
		m.on[id] = false
	}
	m.ids = m.ids[:0]
}

// Bytes approximates the memory the set holds.
func (m *Marks) Bytes() int64 { return int64(cap(m.on)) + 8*int64(cap(m.ids)) }

// propagateDown is the one propagation kernel, behind PropagateDown,
// PropagateDownInto and PropagateDownMarked. It writes the flow of each
// DAG link at most once, in place, using acc (length NumNodes) as the
// per-node accumulator. With marks nil, flow must be a zeroed row and
// links out of nodes without traffic are left at zero. With marks
// non-nil, flow must be zero on every link outside d — a row this
// kernel last wrote for an earlier state of the same destination is,
// once EvenSplitsAt has cleared the links that left the DAG — every DAG
// link is written, and each link whose flow bits change is added to
// marks. A node's ratios are checked once its links are written, so on
// an error flow is partly written. It performs no allocation on
// success.
func propagateDown(g *Graph, d *DAG, demand, ratio, flow, acc []float64, marks *Marks) error {
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
		a := acc[u]
		if u == d.Dst || a == 0 {
			if marks != nil { // in place: clear what an earlier state left
				for _, id := range d.Out[u] {
					if math.Float64bits(flow[id]) != 0 {
						flow[id] = 0
						marks.Add(id)
					}
				}
			}
			continue
		}
		var sum float64
		for _, id := range d.Out[u] {
			r := ratio[id]
			sum += r
			amt := a * r
			if marks != nil && math.Float64bits(flow[id]) != math.Float64bits(amt) {
				marks.Add(id)
			}
			flow[id] = amt
			acc[g.links[id].To] += amt
		}
		// Negated so a NaN sum fails the check too.
		if !(math.Abs(sum-1) <= 1e-6) {
			return fmt.Errorf("graph: split ratios at node %d sum to %v toward destination %d", u, sum, d.Dst)
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
	if err := propagateDown(g, d, demand, ratio, flow, acc, nil); err != nil {
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
	if err := ws.checkFlow(g, demand, ratio, flow); err != nil {
		return err
	}
	clear(flow)
	return propagateDown(g, d, demand, ratio, flow, ws.acc, nil)
}

// PropagateDownMarked updates flow in place to what PropagateDownInto
// would write, bit for bit, and adds every link whose flow changed to
// marks (non-nil, sized for g's links). flow must be zero on every link
// outside d: a row PropagateDownInto or this method last wrote for the
// same destination qualifies after a demand change, and after a DAG
// repair once EvenSplitsAt has re-split the nodes whose Out list
// changed. It writes only the DAG's links and skips the zeroing pass
// over every link.
func (ws *Workspace) PropagateDownMarked(g *Graph, d *DAG, demand, ratio, flow []float64, marks *Marks) error {
	if err := ws.checkFlow(g, demand, ratio, flow); err != nil {
		return err
	}
	return propagateDown(g, d, demand, ratio, flow, ws.acc, marks)
}

// checkFlow validates the workspace propagation forms' vector shapes
// and fits the workspace to g.
func (ws *Workspace) checkFlow(g *Graph, demand, ratio, flow []float64) error {
	if err := checkPropagate(g, demand, ratio); err != nil {
		return err
	}
	if len(flow) != g.NumLinks() {
		return fmt.Errorf("graph: flow vector has %d entries for %d links", len(flow), g.NumLinks())
	}
	ws.fit(g)
	// acc needs no pre-zeroing: the demand loop in propagateDown writes
	// every entry before the propagation pass reads any.
	return nil
}
