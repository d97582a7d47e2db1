package graph

import (
	"fmt"
	"math"
)

// Per-node state bits of one RepairDAG call, cleared through the
// touched list before it returns.
const (
	repTouched  uint8 = 1 << iota // prev holds the node's distance before the repair
	repInvalid                    // the old distance may rest on a raised link
	repMoved                      // the distance moved
	repRetested                   // the node's Out list was re-tested
)

// RepairDAG updates d in place after a weight event. d must be a DAG
// that BuildDAG built toward d.Dst with tolerance d.Tol under weights
// equal to w, except that link links[k] (distinct IDs) weighed old[k].
// Afterwards d's distances, Out lists and cached node order are exactly
// — bit for bit — what BuildDAG(g, w, d.Dst, d.Tol) returns, and
// RepairDAG reports how many node distances moved.
//
// It touches only the nodes whose distance can change and the links
// around them, in four steps:
//
//  1. Invalidate. The tail of every raised link that was on a
//     (tolerance-)shortest path, dv + old - du <= eps, is invalid, and
//     so is every node that reaches an invalid node over a link of the
//     graph passing the same test under w. The walk follows the graph's
//     links, not the DAG's: a zero-weight link between equidistant
//     nodes is outside the DAG yet may carry a node's only shortest
//     path. The destination is never invalid.
//  2. Re-settle. Invalid nodes restart from their best out-link into
//     the rest of the graph, the tail of every lowered link from that
//     link, and Dijkstra's lazy-heap loop runs from there with strict
//     improvement. The distances are then those of dijkstraTo, bit for
//     bit: each is the least fl(w_uv + d_v) over the node's out-links,
//     one fixed point whatever the settle order. A valid node keeps an
//     old shortest path that avoids every raised link, so its old
//     distance bounds its new one from above; every value the loop
//     writes is a real walk's length, so it is an upper bound too; and
//     when the heap empties every link satisfies d_u <= fl(w_uv + d_v).
//  3. Re-test membership, with buildDAG's own predicate, for the nodes
//     whose distance moved, the tails of their in-links and the tail of
//     every event link: no other link's inputs changed. g.OutLinks is
//     in increasing link-ID order, the order buildDAG emits.
//  4. Re-order. Nodes whose distance did not move keep their relative
//     order; the moved nodes still reachable are sorted by decreasing
//     distance, then ID, and merged in. Unreachable sorts first in that
//     order, so the newly unreachable nodes drop off the front.
//
// It works for any tolerance and allocates nothing in steady state; the
// first repair on a workspace sizes the state it keeps for repairs.
func (ws *Workspace) RepairDAG(g *Graph, w []float64, d *DAG, links []int, old []float64) (int, error) {
	if err := checkRepair(g, w, d, links, old); err != nil {
		return 0, err
	}
	ws.fit(g)
	ws.fitRepair(g)
	dist, eps := d.Dist, dagEps(d.Tol)
	ws.touched = ws.touched[:0]

	for k, e := range links {
		l := &g.links[e]
		if w[e] > old[k] && l.From != d.Dst && onShortestPath(dist[l.From], dist[l.To], old[k], eps) {
			ws.invalidate(l.From, dist)
		}
	}
	for i := 0; i < len(ws.touched); i++ { // every touched node so far is invalid
		v := ws.touched[i]
		for _, id := range g.in[v] {
			u := g.links[id].From
			if u != d.Dst && ws.flag[u]&repInvalid == 0 && onShortestPath(dist[u], dist[v], w[id], eps) {
				ws.invalidate(u, dist)
			}
		}
	}

	q := &ws.heap
	q.items = q.items[:0]
	invalid := ws.touched
	for _, u := range invalid {
		dist[u] = Unreachable
		for _, id := range g.out[u] {
			v := g.links[id].To
			if ws.flag[v]&repInvalid != 0 {
				continue // settles later and relaxes this link then
			}
			if cand := dist[v] + w[id]; cand < dist[u] {
				dist[u] = cand
			}
		}
		if dist[u] != Unreachable {
			q.push(pqItem{dist: dist[u], node: u})
		}
	}
	for k, e := range links {
		if l := &g.links[e]; w[e] < old[k] {
			ws.relax(l.From, dist[l.To]+w[e], dist)
		}
	}
	for len(q.items) > 0 {
		it := q.popMin()
		if it.dist > dist[it.node] {
			continue // stale: the node improved again after this entry
		}
		for _, id := range g.in[it.node] {
			ws.relax(g.links[id].From, it.dist+w[id], dist)
		}
	}

	ws.moved = ws.moved[:0]
	for _, u := range ws.touched {
		if dist[u] != ws.prev[u] {
			ws.flag[u] |= repMoved
			ws.moved = append(ws.moved, u)
		}
	}
	for _, u := range ws.moved {
		ws.retest(g, w, d, u, eps)
		for _, id := range g.in[u] {
			ws.retest(g, w, d, g.links[id].From, eps)
		}
	}
	for k, e := range links {
		if w[e] != old[k] {
			ws.retest(g, w, d, g.links[e].From, eps)
		}
	}
	if len(ws.moved) > 0 && d.order != nil {
		ws.reorder(d)
	}
	for _, u := range ws.touched {
		ws.flag[u] = 0
	}
	return len(ws.moved), nil
}

// checkRepair validates what RepairDAG can check without reading more
// than the event: shapes, the event's links and their new weights.
func checkRepair(g *Graph, w []float64, d *DAG, links []int, old []float64) error {
	n := g.NumNodes()
	switch {
	case len(w) != g.NumLinks():
		return fmt.Errorf("%w: got %d weights for %d links", ErrBadWeights, len(w), g.NumLinks())
	case len(d.Dist) != n || len(d.Out) != n:
		return fmt.Errorf("graph: DAG of %d nodes for a %d-node graph", len(d.Dist), n)
	case d.Dst < 0 || d.Dst >= n:
		return fmt.Errorf("graph: destination %d out of range", d.Dst)
	case d.Tol < 0:
		return fmt.Errorf("graph: negative tolerance %v", d.Tol)
	case len(old) != len(links):
		return fmt.Errorf("graph: %d old weights for %d links", len(old), len(links))
	}
	for _, e := range links {
		if e < 0 || e >= g.NumLinks() {
			return fmt.Errorf("graph: link %d out of range", e)
		}
		if math.IsNaN(w[e]) || w[e] < 0 {
			return fmt.Errorf("%w: link %d has weight %v", ErrBadWeights, e, w[e])
		}
	}
	return nil
}

// fitRepair sizes RepairDAG's state for g's shape. Reset leaves it
// alone, so a workspace that never repairs a DAG — every one the
// optimizers and routers draw — allocates none of it. The heap grows
// past Dijkstra's NumLinks+1 bound: a repair pushes each invalid node
// once and each lowered link's tail once, and relaxes each link at most
// once, since a node settles at most once.
func (ws *Workspace) fitRepair(g *Graph) {
	n, m := g.NumNodes(), g.NumLinks()
	if len(ws.flag) != n {
		ws.prev = growFloats(ws.prev, n)
		ws.touched = growInts(ws.touched, n)
		ws.moved = growInts(ws.moved, n)
		if cap(ws.flag) < n {
			ws.flag = make([]uint8, n) // all clear, as between repairs
		}
		ws.flag = ws.flag[:n]
	}
	if hp := n + 2*m + 1; cap(ws.heap.items) < hp {
		ws.heap.items = make([]pqItem, 0, hp)
	}
}

// onShortestPath reports whether a link (u,v) of weight w lies within
// eps of a shortest path toward the destination: the screen's test for
// a link whose raise can lengthen du.
func onShortestPath(du, dv, w, eps float64) bool {
	return du != Unreachable && dv != Unreachable && dv+w-du <= eps
}

// touch records u's distance before the repair, once.
func (ws *Workspace) touch(u int, dist []float64) {
	if ws.flag[u]&repTouched == 0 {
		ws.flag[u] |= repTouched
		ws.prev[u] = dist[u]
		ws.touched = append(ws.touched, u)
	}
}

func (ws *Workspace) invalidate(u int, dist []float64) {
	ws.touch(u, dist)
	ws.flag[u] |= repInvalid
}

// relax lowers u's distance to cand on a strict improvement and queues
// it, as dijkstraTo does.
func (ws *Workspace) relax(u int, cand float64, dist []float64) {
	if cand < dist[u] {
		ws.touch(u, dist)
		dist[u] = cand
		ws.heap.push(pqItem{dist: cand, node: u})
	}
}

// retest rebuilds u's Out list from its graph out-links with buildDAG's
// predicate, once per repair.
func (ws *Workspace) retest(g *Graph, w []float64, d *DAG, u int, eps float64) {
	if ws.flag[u]&repRetested != 0 {
		return
	}
	if ws.flag[u] == 0 {
		ws.touched = append(ws.touched, u) // for the flag reset only
	}
	ws.flag[u] |= repRetested
	out := d.Out[u][:0]
	for _, id := range g.out[u] {
		if inDAG(d.Dist[u], d.Dist[g.links[id].To], w[id], false, eps) {
			out = append(out, id)
		}
	}
	d.Out[u] = out
}

// reorder merges the moved nodes back into d's cached node order.
func (ws *Workspace) reorder(d *DAG) {
	dist := d.Dist
	sortNodesByDistDesc(ws.moved, dist)
	fresh := ws.moved
	for len(fresh) > 0 && dist[fresh[0]] == Unreachable {
		fresh = fresh[1:]
	}
	merged := ws.order[:0]
	for _, u := range d.order {
		if ws.flag[u]&repMoved != 0 {
			continue
		}
		for len(fresh) > 0 && nodeAfter(dist, u, fresh[0]) {
			merged = append(merged, fresh[0])
			fresh = fresh[1:]
		}
		merged = append(merged, u)
	}
	merged = append(merged, fresh...)
	d.order = append(d.order[:0], merged...)
	ws.order = merged
}
