package bench

// Faithful copies of the pre-workspace kernels (container/heap Dijkstra,
// fresh-slice DAG extraction, per-call sorted propagation) — the "slow
// path" every BENCH_*.json compares the workspace kernels against, and
// the oracle for the MLU parity checks. They are kept verbatim-in-
// spirit so the recorded speedups measure this PR's rebuild, not
// incidental drift.

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/traffic"
)

type legacyPQItem struct {
	node int
	dist float64
}

type legacyPQ struct {
	items []legacyPQItem
	pos   []int
}

func (q *legacyPQ) Len() int           { return len(q.items) }
func (q *legacyPQ) Less(i, j int) bool { return q.items[i].dist < q.items[j].dist }
func (q *legacyPQ) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.pos[q.items[i].node] = i
	q.pos[q.items[j].node] = j
}
func (q *legacyPQ) Push(x any) {
	it := x.(legacyPQItem)
	q.pos[it.node] = len(q.items)
	q.items = append(q.items, it)
}
func (q *legacyPQ) Pop() any {
	n := len(q.items)
	it := q.items[n-1]
	q.items = q.items[:n-1]
	q.pos[it.node] = -1
	return it
}

// legacyDijkstraTo is the seed's DijkstraTo: container/heap with
// interface boxing, fresh dist and position slices per call.
func legacyDijkstraTo(g *graph.Graph, weights []float64, dst int) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = graph.Unreachable
	}
	dist[dst] = 0
	q := &legacyPQ{pos: make([]int, n)}
	for i := range q.pos {
		q.pos[i] = -1
	}
	heap.Push(q, legacyPQItem{node: dst, dist: 0})
	for q.Len() > 0 {
		it := heap.Pop(q).(legacyPQItem)
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		for _, id := range g.InLinks(it.node) {
			l := g.Link(id)
			cand := it.dist + weights[id]
			if cand < dist[l.From] {
				dist[l.From] = cand
				if q.pos[l.From] >= 0 {
					q.items[q.pos[l.From]].dist = cand
					heap.Fix(q, q.pos[l.From])
				} else {
					heap.Push(q, legacyPQItem{node: l.From, dist: cand})
				}
			}
		}
	}
	return dist
}

// legacyBuildDAG is the seed's BuildDAG: legacy Dijkstra plus fresh
// adjacency slices per call.
func legacyBuildDAG(g *graph.Graph, weights []float64, dst int, tol float64) *graph.DAG {
	dist := legacyDijkstraTo(g, weights, dst)
	eps := tol
	if eps == 0 {
		eps = 1e-12
	}
	d := &graph.DAG{
		Dst:  dst,
		Dist: dist,
		Out:  make([][]int, g.NumNodes()),
		Tol:  tol,
	}
	for _, l := range g.Links() {
		du, dv := dist[l.From], dist[l.To]
		if du == graph.Unreachable || dv == graph.Unreachable {
			continue
		}
		if dv+weights[l.ID]-du <= eps && dv < du {
			d.Out[l.From] = append(d.Out[l.From], l.ID)
		}
	}
	return d
}

// legacyNodesDescending is the seed's DAG.NodesDescending: a fresh
// slice and a sort.Slice per call (the propagation kernels called it on
// every invocation).
func legacyNodesDescending(d *graph.DAG) []int {
	var nodes []int
	for u, dist := range d.Dist {
		if dist != graph.Unreachable {
			nodes = append(nodes, u)
		}
	}
	sort.Slice(nodes, func(i, j int) bool {
		a, b := nodes[i], nodes[j]
		if d.Dist[a] != d.Dist[b] {
			return d.Dist[a] > d.Dist[b]
		}
		return a < b
	})
	return nodes
}

// legacyExponentialSplits is the seed's ExponentialSplits: fresh ratio
// and logZ slices plus a per-call node sort.
func legacyExponentialSplits(g *graph.Graph, d *graph.DAG, cost []float64) ([]float64, []float64) {
	logZ := make([]float64, g.NumNodes())
	for i := range logZ {
		logZ[i] = math.Inf(-1)
	}
	logZ[d.Dst] = 0
	nodes := legacyNodesDescending(d)
	for i := len(nodes) - 1; i >= 0; i-- {
		u := nodes[i]
		if u == d.Dst || len(d.Out[u]) == 0 {
			continue
		}
		maxTerm := math.Inf(-1)
		for _, id := range d.Out[u] {
			if t := -cost[id] + logZ[g.Link(id).To]; t > maxTerm {
				maxTerm = t
			}
		}
		var sum float64
		for _, id := range d.Out[u] {
			sum += math.Exp(-cost[id] + logZ[g.Link(id).To] - maxTerm)
		}
		logZ[u] = maxTerm + math.Log(sum)
	}
	ratio := make([]float64, g.NumLinks())
	for _, u := range nodes {
		if u == d.Dst {
			continue
		}
		for _, id := range d.Out[u] {
			ratio[id] = math.Exp(-cost[id] + logZ[g.Link(id).To] - logZ[u])
		}
	}
	return ratio, logZ
}

// legacyPropagateDown is the seed's PropagateDown: fresh flow and
// accumulator slices plus a per-call node sort.
func legacyPropagateDown(g *graph.Graph, d *graph.DAG, demand, ratio []float64) ([]float64, error) {
	flow := make([]float64, g.NumLinks())
	acc := make([]float64, g.NumNodes())
	for s, v := range demand {
		if v < 0 {
			return nil, fmt.Errorf("bench: negative demand %v at node %d", v, s)
		}
		if v > 0 && d.Dist[s] == graph.Unreachable {
			return nil, fmt.Errorf("bench: demand at node %d cannot reach destination %d", s, d.Dst)
		}
		acc[s] = v
	}
	for _, u := range legacyNodesDescending(d) {
		if u == d.Dst || acc[u] == 0 {
			continue
		}
		var sum float64
		for _, id := range d.Out[u] {
			sum += ratio[id]
		}
		if math.Abs(sum-1) > 1e-6 {
			return nil, fmt.Errorf("bench: split ratios at node %d sum to %v", u, sum)
		}
		for _, id := range d.Out[u] {
			amt := acc[u] * ratio[id]
			flow[id] += amt
			acc[g.Link(id).To] += amt
		}
	}
	return flow, nil
}

// legacyTrafficDistribution is the seed's Algorithm 3: the sequential
// per-destination loop over the legacy split and propagation kernels —
// the slow path the MLU parity check runs against.
func legacyTrafficDistribution(g *graph.Graph, dags map[int]*graph.DAG, tm *traffic.Matrix, v []float64) (*mcf.Flow, error) {
	dests := tm.Destinations()
	flow := mcf.NewFlow(g, dests)
	for _, t := range dests {
		d, ok := dags[t]
		if !ok {
			return nil, fmt.Errorf("bench: no DAG for destination %d", t)
		}
		ratio, _ := legacyExponentialSplits(g, d, v)
		ft, err := legacyPropagateDown(g, d, tm.ToDestination(t), ratio)
		if err != nil {
			return nil, err
		}
		copy(flow.PerDest[t], ft)
	}
	flow.RecomputeTotal()
	return flow, nil
}
