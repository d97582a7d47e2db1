package graph

import (
	"fmt"
	"slices"
)

// DAG is the destination-rooted shortest-path DAG ON_t of the paper: the
// set of links that lie on some (tolerance-)shortest path toward Dst.
//
// A link (u,v) is included iff
//
//	dist[v] + w_uv - dist[u] <= tol   and   dist[v] < dist[u],
//
// where dist is the exact shortest distance to Dst. The strict-decrease
// condition guarantees acyclicity even with a positive tolerance (the
// paper's Dijkstra tolerance, Section V-G).
type DAG struct {
	Dst int
	// Dist[u] is the exact shortest distance u -> Dst.
	Dist []float64
	// Out[u] lists the IDs of DAG links leaving u (the equal-cost next
	// hops of u toward Dst).
	Out [][]int
	// Tol is the equal-cost tolerance the DAG was built with.
	Tol float64
	// order caches NodesDescending (derived at construction by the
	// builders from Dijkstra's settle order; sorted lazily for
	// hand-assembled DAGs). Caching it makes every downstream traversal
	// — PropagateDown, ExponentialSplits, CountPaths — allocation- and
	// sort-free.
	order []int
}

// buildDAG populates the arena-or-fresh DAG d from distances already in
// d.Dist and the settle order of the Dijkstra run that produced them:
// link membership, adjacency, and the cached processing order.
// d.Out must have length NumNodes; its per-node slices are
// truncated and refilled, retaining capacity (the workspace arena's
// zero-allocation steady state).
func buildDAG(g *Graph, weights []float64, d *DAG, settled []int, downward bool, eps float64) {
	for u := range d.Out {
		d.Out[u] = d.Out[u][:0]
	}
	for i := range g.links {
		l := &g.links[i]
		if inDAG(d.Dist[l.From], d.Dist[l.To], weights[l.ID], downward, eps) {
			d.Out[l.From] = append(d.Out[l.From], l.ID)
		}
	}
	d.order = appendSettledDescending(d.order[:0], settled, d.Dist)
}

// inDAG is the membership test of a link (u,v) of weight w, given the
// distances du and dv toward the destination: both reachable, a strict
// decrease, and — unless the DAG is downward — a slack within eps. It is
// the one test buildDAG and RepairDAG apply.
func inDAG(du, dv, w float64, downward bool, eps float64) bool {
	if du == Unreachable || dv == Unreachable || dv >= du {
		return false
	}
	return downward || dv+w-du <= eps
}

// appendNodesDescending appends the reachable nodes ordered by
// decreasing distance (ties by increasing ID) onto buf, sorting them
// from dist alone.
func appendNodesDescending(buf []int, dist []float64) []int {
	for u, du := range dist {
		if du != Unreachable {
			buf = append(buf, u)
		}
	}
	sortNodesByDistDesc(buf, dist)
	return buf
}

// appendSettledDescending appends the same order as
// appendNodesDescending, derived from a Dijkstra settle order instead
// of sorted: nodes settle in non-decreasing distance, so the reversed
// settle order is already by decreasing distance, and only each run of
// exactly equal distances is re-sorted, by increasing ID. Decreasing
// distance with ties by ID is a strict total order, so the result is
// the heapsort's node for node, at O(n + sum r log r) for runs of
// length r instead of O(n log n).
func appendSettledDescending(buf, settled []int, dist []float64) []int {
	n, start := len(settled), len(buf)
	buf = slices.Grow(buf, n)[:start+n]
	nodes := buf[start:]
	ties := false
	prev := -1.0 // below every distance
	for i, u := range settled {
		nodes[n-1-i] = u
		d := dist[u]
		ties = ties || d == prev
		prev = d
	}
	if !ties {
		return buf
	}
	for i := 0; i < n; {
		d, j := dist[nodes[i]], i+1
		for j < n && dist[nodes[j]] == d {
			j++
		}
		if j-i > 1 {
			slices.Sort(nodes[i:j])
		}
		i = j
	}
	return buf
}

// dagEps widens a zero tolerance to the floating-point slack used for
// exact shortest paths.
func dagEps(tol float64) float64 {
	if tol == 0 {
		return 1e-12
	}
	return tol
}

// EffectiveDAGTol returns the equal-cost slack BuildDAG actually applies
// for a requested tolerance: tol itself, widened to the floating-point
// slack used for exact shortest paths when tol is 0. Incremental
// consumers (internal/localsearch) apply the same slack when deciding
// whether a weight change can alter a DAG's membership.
func EffectiveDAGTol(tol float64) float64 { return dagEps(tol) }

// BuildDAG computes the shortest-path DAG toward dst under the given
// weights with the given equal-cost tolerance (tol >= 0; 0 keeps exact
// shortest paths only, up to floating-point slack of 1e-12). It
// allocates a fresh DAG; iterative callers use Workspace.BuildDAG.
func BuildDAG(g *Graph, weights []float64, dst int, tol float64) (*DAG, error) {
	if tol < 0 {
		return nil, fmt.Errorf("graph: negative tolerance %v", tol)
	}
	sp, err := DijkstraTo(g, weights, dst)
	if err != nil {
		return nil, err
	}
	d := &DAG{
		Dst:  dst,
		Dist: sp.Dist,
		Out:  make([][]int, g.NumNodes()),
		Tol:  tol,
	}
	buildDAG(g, weights, d, sp.settled, false, dagEps(tol))
	return d, nil
}

// BuildDAG is the workspace-backed form of the package-level BuildDAG:
// bit-identical membership and distances, zero allocation in steady
// state (the adjacency arena retains per-node capacity across calls).
// The returned DAG shares workspace storage and is valid until the next
// call on ws; Clone it to retain it.
func (ws *Workspace) BuildDAG(g *Graph, weights []float64, dst int, tol float64) (*DAG, error) {
	if tol < 0 {
		return nil, fmt.Errorf("graph: negative tolerance %v", tol)
	}
	sp, err := ws.DijkstraTo(g, weights, dst)
	if err != nil {
		return nil, err
	}
	d := &ws.dag
	d.Dst, d.Dist, d.Tol = dst, sp.Dist, tol
	buildDAG(g, weights, d, sp.settled, false, dagEps(tol))
	return d, nil
}

// NodesDescending returns the nodes that can reach Dst ordered by
// decreasing distance (Dst last). This is the processing order of the
// paper's Algorithm 3 (TrafficDistribution): by the time a node is
// visited, all upstream traffic into it has been accumulated. The DAG
// builders cache the order at construction; the returned slice is
// shared and must not be modified.
func (d *DAG) NodesDescending() []int {
	if d.order == nil {
		d.order = appendNodesDescending(make([]int, 0, len(d.Dist)), d.Dist)
	}
	return d.order
}

// HasLink reports whether link id is part of the DAG.
func (d *DAG) HasLink(g *Graph, id int) bool {
	l := g.Link(id)
	for _, out := range d.Out[l.From] {
		if out == id {
			return true
		}
	}
	return false
}

// CheckAcyclic verifies that the DAG contains no directed cycle. It
// returns nil on success; the construction invariant (strict distance
// decrease) should make failure impossible, so this is a test oracle.
func (d *DAG) CheckAcyclic(g *Graph) error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(d.Dist))
	var visit func(u int) error
	visit = func(u int) error {
		color[u] = gray
		for _, id := range d.Out[u] {
			v := g.Link(id).To
			switch color[v] {
			case gray:
				return fmt.Errorf("graph: DAG cycle through node %d", v)
			case white:
				if err := visit(v); err != nil {
					return err
				}
			}
		}
		color[u] = black
		return nil
	}
	for u := range color {
		if color[u] == white {
			if err := visit(u); err != nil {
				return err
			}
		}
	}
	return nil
}

// CountPaths returns, for every node, the number of distinct DAG paths
// from that node to Dst (as float64 to tolerate exponential counts).
// Nodes that cannot reach Dst report 0.
func (d *DAG) CountPaths(g *Graph) []float64 {
	counts := make([]float64, len(d.Dist))
	counts[d.Dst] = 1
	// Process nodes in increasing distance (Dst first): every DAG link
	// points from a farther node to a strictly closer one, so by the time
	// u is processed all of its next hops are final.
	nodes := d.NodesDescending()
	for i := len(nodes) - 1; i >= 0; i-- {
		u := nodes[i]
		if u == d.Dst {
			continue
		}
		var total float64
		for _, id := range d.Out[u] {
			total += counts[g.Link(id).To]
		}
		counts[u] = total
	}
	return counts
}
