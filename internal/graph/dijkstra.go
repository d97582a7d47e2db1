package graph

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadWeights reports a weight vector that does not match the graph or
// contains negative/NaN entries where forbidden.
var ErrBadWeights = errors.New("graph: bad weight vector")

// Unreachable is the distance reported for nodes with no path to the
// destination.
const Unreachable = math.MaxFloat64

// SPResult holds single-destination shortest-path distances: Dist[u] is
// the length of the shortest u -> Dst path under the weight vector used,
// or Unreachable if no path exists.
type SPResult struct {
	Dst  int
	Dist []float64
	// settled lists the reachable nodes in the order Dijkstra settled
	// them: non-decreasing distance, Dst first. It is nil for results
	// that do not come from Dijkstra (Bellman-Ford), whose node order
	// is sorted from Dist instead.
	settled []int
}

// CheckWeights validates a per-link weight vector for shortest-path
// use: one weight per link of g, none negative or NaN (+Inf masks a
// link). Every shortest-path entry point runs it, except DijkstraOrder,
// whose caller runs it once for many passes under one vector.
func CheckWeights(g *Graph, weights []float64) error {
	if len(weights) != g.NumLinks() {
		return fmt.Errorf("%w: got %d weights for %d links", ErrBadWeights, len(weights), g.NumLinks())
	}
	for i, w := range weights {
		if math.IsNaN(w) || w < 0 {
			return fmt.Errorf("%w: link %d has weight %v", ErrBadWeights, i, w)
		}
	}
	return nil
}

type pqItem struct {
	dist float64
	node int
}

// lazyHeap is a binary min-heap of tentative (dist, node) entries with
// lazy deletion. Dijkstra pushes a node again on every strict
// improvement of its distance instead of decreasing its key in place,
// so the heap keeps no node -> position index; an entry made stale by a
// later improvement is skipped when it is popped. Every link relaxes at
// most once (when its head settles), so the heap never holds more than
// NumLinks+1 entries. It is manipulated directly rather than through
// container/heap so no value is boxed into an interface on the hot
// path.
type lazyHeap struct {
	items []pqItem
}

func (q *lazyHeap) push(it pqItem) {
	q.items = append(q.items, it)
	items := q.items
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if items[parent].dist <= it.dist {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = it
}

// popMin removes and returns the minimum entry.
func (q *lazyHeap) popMin() pqItem {
	items := q.items
	top := items[0]
	n := len(items) - 1
	last := items[n]
	items = items[:n]
	q.items = items
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && items[r].dist < items[child].dist {
			child = r
		}
		if last.dist <= items[child].dist {
			break
		}
		items[i] = items[child]
		i = child
	}
	items[i] = last
	return top
}

// dijkstraTo is the shared kernel behind DijkstraTo and
// Workspace.DijkstraTo: reverse Dijkstra over incoming links with a
// lazy-deletion heap, writing distances into dist (length NumNodes) and
// appending the settle order onto settled[:0]. With capacity NumLinks+1
// in q and NumNodes in settled it performs no allocation.
//
// The distances do not depend on which of several equal entries pops
// first: each dist[u] is the least fl(w_uv + dist[v]) over u's
// out-links at v's final distance, and since rounding is monotone that
// is the least walk length to dst summed from dst outward — the same
// bits for every valid settle order. The settle order is non-decreasing
// in distance for the same reason: fl(d + w) >= d for w >= 0, so no
// relaxation undercuts the distance just settled.
func dijkstraTo(g *Graph, weights []float64, dst int, dist []float64, q *lazyHeap, settled []int) []int {
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		dist[i] = Unreachable
	}
	dist[dst] = 0
	settled = settled[:0]
	q.items = q.items[:0]
	q.push(pqItem{dist: 0, node: dst})
	for len(q.items) > 0 {
		it := q.popMin()
		if it.dist > dist[it.node] {
			continue // stale: the node settled from a later, shorter entry
		}
		settled = append(settled, it.node)
		for _, id := range g.InLinks(it.node) {
			from := g.links[id].From
			if cand := it.dist + weights[id]; cand < dist[from] {
				dist[from] = cand
				q.push(pqItem{dist: cand, node: from})
			}
		}
	}
	return settled
}

// checkSP validates the (weights, dst) pair shared by every
// shortest-path entry point.
func checkSP(g *Graph, weights []float64, dst int) error {
	if err := CheckWeights(g, weights); err != nil {
		return err
	}
	return checkDst(g, dst)
}

func checkDst(g *Graph, dst int) error {
	if dst < 0 || dst >= g.NumNodes() {
		return fmt.Errorf("graph: destination %d out of range", dst)
	}
	return nil
}

// DijkstraTo computes the shortest distance from every node to dst under
// the given non-negative per-link weights (reverse Dijkstra over incoming
// links). This is the destination-rooted orientation used by link-state
// routing protocols. It allocates a fresh result; iterative callers use
// Workspace.DijkstraTo, which reuses buffers and allocates nothing in
// steady state.
func DijkstraTo(g *Graph, weights []float64, dst int) (*SPResult, error) {
	if err := checkSP(g, weights, dst); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	dist := make([]float64, n)
	q := &lazyHeap{items: make([]pqItem, 0, g.NumLinks()+1)}
	settled := dijkstraTo(g, weights, dst, dist, q, make([]int, 0, n))
	return &SPResult{Dst: dst, Dist: dist, settled: settled}, nil
}

// DijkstraTo is the workspace-backed form of the package-level
// DijkstraTo: bit-identical distances, zero allocation in steady state.
// The returned result shares workspace storage and is valid until the
// next call on ws.
func (ws *Workspace) DijkstraTo(g *Graph, weights []float64, dst int) (*SPResult, error) {
	if err := checkSP(g, weights, dst); err != nil {
		return nil, err
	}
	ws.fit(g)
	ws.settled = dijkstraTo(g, weights, dst, ws.dist, &ws.heap, ws.settled)
	ws.sp = SPResult{Dst: dst, Dist: ws.dist, settled: ws.settled}
	return &ws.sp, nil
}

// DijkstraOrder is Workspace.DijkstraTo for a caller that has checked
// weights with CheckWeights: it does not check them again. It returns
// the distances, in workspace storage valid until the next call on ws,
// and appends onto order[:0] every node of g by decreasing distance,
// ties by increasing ID: the unreachable nodes first (Unreachable is
// the largest distance), then the reachable ones in the order the DAG
// builders derive from the settle order.
func (ws *Workspace) DijkstraOrder(g *Graph, weights []float64, dst int, order []int) ([]float64, []int, error) {
	if err := checkDst(g, dst); err != nil {
		return nil, order, err
	}
	ws.fit(g)
	ws.settled = dijkstraTo(g, weights, dst, ws.dist, &ws.heap, ws.settled)
	order = order[:0]
	for u, d := range ws.dist {
		if d == Unreachable {
			order = append(order, u)
		}
	}
	return ws.dist, appendSettledDescending(order, ws.settled, ws.dist), nil
}

// bellmanFordTo relaxes every link until a pass settles (no distance
// changed), writing destination-rooted distances into dist. At most
// NumNodes passes run; each pass is a single allocation-free sweep over
// the link table.
func bellmanFordTo(g *Graph, weights []float64, dst int, dist []float64) {
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		dist[i] = Unreachable
	}
	dist[dst] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for i := range g.links {
			l := &g.links[i]
			if dist[l.To] == Unreachable {
				continue
			}
			if cand := dist[l.To] + weights[l.ID]; cand < dist[l.From] {
				dist[l.From] = cand
				changed = true
			}
		}
		if !changed {
			break // settled pass: every further pass would be identical
		}
	}
}

// BellmanFordTo computes the same destination-rooted distances as
// DijkstraTo using Bellman-Ford relaxation. It exists as an independent
// oracle for testing and tolerates zero weights the same way.
func BellmanFordTo(g *Graph, weights []float64, dst int) (*SPResult, error) {
	if err := checkSP(g, weights, dst); err != nil {
		return nil, err
	}
	dist := make([]float64, g.NumNodes())
	bellmanFordTo(g, weights, dst, dist)
	return &SPResult{Dst: dst, Dist: dist}, nil
}

// BellmanFordTo is the workspace-backed form of the package-level
// BellmanFordTo: the distance buffer is reused across calls (the
// cross-check oracle runs once per destination per topology, so the
// per-call O(V) buffer used to dominate its allocation profile). The
// result shares workspace storage and is valid until the next call on
// ws.
func (ws *Workspace) BellmanFordTo(g *Graph, weights []float64, dst int) (*SPResult, error) {
	if err := checkSP(g, weights, dst); err != nil {
		return nil, err
	}
	ws.fit(g)
	bellmanFordTo(g, weights, dst, ws.dist)
	ws.sp = SPResult{Dst: dst, Dist: ws.dist}
	return &ws.sp, nil
}

// Reachable reports whether every node can reach dst (used to validate
// experiment topologies before running optimization).
func Reachable(g *Graph, dst int) (bool, error) {
	if dst < 0 || dst >= g.NumNodes() {
		return false, fmt.Errorf("graph: destination %d out of range", dst)
	}
	return len(g.Reachers(dst, nil, make([]bool, g.NumNodes()), nil)) == g.NumNodes(), nil
}

// Reachers marks in reached every node with a path to dst that uses no
// link marked in down (nil, or length NumLinks), searching breadth-first
// back along in-links, and returns them in the order found, dst first,
// in queue's reused storage. reached must have length NumNodes; it is
// cleared first. With both buffers reused, repeated calls allocate
// nothing.
func (g *Graph) Reachers(dst int, down, reached []bool, queue []int) []int {
	clear(reached)
	reached[dst] = true
	queue = append(queue[:0], dst)
	for k := 0; k < len(queue); k++ {
		for _, id := range g.in[queue[k]] {
			if u := g.links[id].From; !reached[u] && (down == nil || !down[id]) {
				reached[u] = true
				queue = append(queue, u)
			}
		}
	}
	return queue
}
