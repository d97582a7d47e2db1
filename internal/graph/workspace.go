package graph

import "sync"

// Workspace is a reusable scratch arena for the shortest-path kernels:
// it owns the lazy heap, the distance and settle-order buffers, the DAG
// arena and the ratio/flow/accumulator vectors those kernels need,
// sized to one topology shape (node and link counts). After a first
// warm-up call the workspace-backed kernels — DijkstraTo,
// BellmanFordTo, BuildDAG, RepairDAG, DownwardDAG, ExponentialSplits,
// PropagateDownInto, PropagateDownMarked — run without any heap
// allocation, which is what makes the iterative optimizers (Algorithm
// 1's per-iteration routing, Algorithm 2's per-iteration traffic
// distribution) and the scenario sweeps allocation-free in steady
// state.
//
// A Workspace is NOT safe for concurrent use: every scenario or
// per-destination worker owns its own (see WorkspacePool). Results that
// share workspace storage — the SPResult of DijkstraTo, the DAG of
// BuildDAG, the slices of ExponentialSplits — are valid only until the
// next call on the same workspace; callers that retain them across
// calls must Clone them.
type Workspace struct {
	nodes, links int

	dist    []float64 // shortest-path distances (shared by Dijkstra/BF/DAG)
	settled []int     // Dijkstra's settle order (SPResult.settled)
	sp      SPResult  // header returned by DijkstraTo/BellmanFordTo
	heap    lazyHeap

	dag   DAG       // DAG arena: per-node adjacency kept at capacity
	acc   []float64 // per-node accumulator of PropagateDownInto
	ratio []float64 // per-link ratios of ExponentialSplits
	logZ  []float64 // per-node log-partition of ExponentialSplits

	demand []float64 // per-node demand scratch for callers (DemandBuffer)
	order  []int     // node-order scratch of NodesByDistDesc and RepairDAG

	// RepairDAG's per-node state, sized by fitRepair on first use: prev
	// and flag are read only for the nodes listed in touched, each
	// listed once.
	prev    []float64 // distances before the repair
	flag    []uint8   // rep* bits, all clear between calls
	touched []int
	moved   []int // the nodes whose distance moved
	rewired []int // the nodes whose Out list changed
	kept    bool  // the last repair kept every propagation (FlowsKept)
}

// NewWorkspace returns a workspace sized for g's shape.
func NewWorkspace(g *Graph) *Workspace {
	ws := &Workspace{}
	ws.Reset(g)
	return ws
}

// Reset re-sizes the workspace for g's shape, growing buffers as needed
// and retaining their capacity. Buffers are reused across topologies of
// compatible shape, so a pooled workspace survives graph changes.
func (ws *Workspace) Reset(g *Graph) {
	n, m := g.NumNodes(), g.NumLinks()
	ws.nodes, ws.links = n, m
	ws.dist = growFloats(ws.dist, n)
	ws.acc = growFloats(ws.acc, n)
	ws.logZ = growFloats(ws.logZ, n)
	ws.demand = growFloats(ws.demand, n)
	ws.ratio = growFloats(ws.ratio, m)
	ws.order = growInts(ws.order, n)
	ws.settled = growInts(ws.settled, n)
	if cap(ws.heap.items) < m+1 {
		ws.heap.items = make([]pqItem, 0, m+1)
	}
	ws.dag.reset(n)
}

// fit re-sizes for g only when the shape changed, so hot loops over one
// topology pay a two-int comparison.
func (ws *Workspace) fit(g *Graph) {
	if ws.nodes != g.NumNodes() || ws.links != g.NumLinks() {
		ws.Reset(g)
	}
}

// DemandBuffer returns the workspace's per-node demand scratch slice
// (length NumNodes). Intended for traffic.Matrix.ToDestinationInto-style
// fills; valid until the next Reset.
func (ws *Workspace) DemandBuffer(g *Graph) []float64 {
	ws.fit(g)
	return ws.demand[:g.NumNodes()]
}

// AccBuffer returns the workspace's per-node accumulator scratch
// (length NumNodes, contents unspecified). Shared with
// PropagateDownInto, which fully overwrites it.
func (ws *Workspace) AccBuffer(g *Graph) []float64 {
	ws.fit(g)
	return ws.acc[:g.NumNodes()]
}

// NodesByDistDesc returns the nodes reachable in sp ordered by
// decreasing distance, ties by increasing ID — the same order DAGs
// cache. A Dijkstra result derives it from its settle order; only
// results without one (Bellman-Ford) are sorted. The returned slice is
// workspace-owned scratch, valid until the next call on ws.
func (ws *Workspace) NodesByDistDesc(sp *SPResult) []int {
	if sp.settled == nil {
		ws.order = appendNodesDescending(ws.order[:0], sp.Dist)
	} else {
		ws.order = appendSettledDescending(ws.order[:0], sp.settled, sp.Dist)
	}
	return ws.order
}

// growFloats returns a slice of length n, reusing s's storage when it
// is large enough.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// reset prepares the DAG arena for n nodes: adjacency lists keep their
// capacity and are truncated to zero length on (re)use.
func (d *DAG) reset(n int) {
	if cap(d.Out) < n {
		out := make([][]int, n)
		copy(out, d.Out)
		d.Out = out
	}
	d.Out = d.Out[:n]
	if cap(d.order) < n {
		d.order = make([]int, 0, n)
	}
}

// Reserve sizes d for DAGs of g: each node's Out list gets room for
// all of the node's out-links, carved from one array, so copying
// (CopyFrom) a DAG of g into d and repairing it there (RepairDAG) never
// allocate, where an empty arena would allocate once per node.
func (d *DAG) Reserve(g *Graph) {
	n := g.NumNodes()
	d.reset(n)
	slab := make([]int, g.NumLinks())
	for u, out := range g.out {
		d.Out[u], slab = slab[:0:len(out)], slab[len(out):]
	}
	if cap(d.Dist) < n {
		d.Dist = make([]float64, 0, n)
	}
}

// Clone returns a deep copy of the DAG that is independent of any
// workspace arena — the form to retain when the DAG was produced by a
// workspace-backed builder.
func (d *DAG) Clone() *DAG {
	c := &DAG{
		Dst:   d.Dst,
		Dist:  append([]float64(nil), d.Dist...),
		Out:   make([][]int, len(d.Out)),
		Tol:   d.Tol,
		order: append([]int(nil), d.order...),
	}
	for u := range d.Out {
		c.Out[u] = append([]int(nil), d.Out[u]...)
	}
	return c
}

// CopyFrom deep-copies src into d, reusing d's existing storage: the
// distance buffer, each node's adjacency slice, and the cached node
// order all retain their capacity. This is the retaining form of Clone
// for callers that keep one long-lived DAG per destination and refill
// it after every rebuild (the incremental local-search state) — in
// steady state the copy allocates nothing.
func (d *DAG) CopyFrom(src *DAG) {
	n := len(src.Out)
	d.reset(n)
	d.Dst = src.Dst
	d.Tol = src.Tol
	d.Dist = append(d.Dist[:0], src.Dist...)
	for u := 0; u < n; u++ {
		d.Out[u] = append(d.Out[u][:0], src.Out[u]...)
	}
	// Force the source's order cache so the copy never recomputes (a
	// lazily-computed order on a refilled arena would go stale).
	d.order = append(d.order[:0], src.NodesDescending()...)
}

// WorkspacePool is a concurrency-safe free list of workspaces. Workers
// of the parallel per-destination and scenario loops Get a private
// workspace, run their kernels allocation-free, and Put it back; the
// pool re-fits recycled workspaces to whatever topology the next caller
// brings.
type WorkspacePool struct {
	p sync.Pool
}

// Get returns a workspace fitted to g (recycled when available).
func (wp *WorkspacePool) Get(g *Graph) *Workspace {
	if ws, ok := wp.p.Get().(*Workspace); ok {
		ws.fit(g)
		return ws
	}
	return NewWorkspace(g)
}

// Put recycles a workspace obtained from Get.
func (wp *WorkspacePool) Put(ws *Workspace) {
	if ws != nil {
		wp.p.Put(ws)
	}
}

// sortNodesByDistDesc sorts nodes in place by decreasing dist, breaking
// ties by increasing node ID — the processing order of the paper's
// Algorithm 3 and of the all-or-nothing assignment. It orders nodes that
// carry no Dijkstra settle order (hand-assembled DAGs, Bellman-Ford
// results) and is the test oracle for the settle-derived order.
// Hand-rolled heapsort so it stays allocation-free (sort.Slice boxes
// its closure).
func sortNodesByDistDesc(nodes []int, dist []float64) {
	n := len(nodes)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownDistDesc(nodes, dist, i, n)
	}
	for i := n - 1; i > 0; i-- {
		nodes[0], nodes[i] = nodes[i], nodes[0]
		siftDownDistDesc(nodes, dist, 0, i)
	}
}

// nodeAfter reports whether a sorts after b in the decreasing-distance,
// increasing-ID order (the heapsort's max-of-the-tail comparison).
func nodeAfter(dist []float64, a, b int) bool { return keyAfter(dist[a], a, dist[b], b) }

// keyAfter is nodeAfter for node a at distance da and node b at db.
func keyAfter(da float64, a int, db float64, b int) bool {
	if da != db {
		return da < db
	}
	return a > b
}

func siftDownDistDesc(nodes []int, dist []float64, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && nodeAfter(dist, nodes[r], nodes[child]) {
			child = r
		}
		if !nodeAfter(dist, nodes[child], nodes[root]) {
			return // root already sorts after both children
		}
		nodes[root], nodes[child] = nodes[child], nodes[root]
		root = child
	}
}
