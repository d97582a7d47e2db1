package mcf

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/traffic"
)

// workspaces recycles per-worker graph scratch across all-or-nothing
// calls; every parallel destination worker draws its own arena, so no
// shortest-path state is ever shared or reallocated in steady state.
var workspaces graph.WorkspacePool

// AllOrNothing routes every demand entirely along one shortest path under
// the given link weights (ties broken toward the smallest link ID, so the
// assignment is deterministic). This is the Frank-Wolfe direction-finding
// step and also the paper's Route_t subproblem (Eq. 15), whose optimum is
// always attained on shortest paths. The next-hop test admits an
// absolute slack of 1e-12; with link weights below that scale a node
// may choose a next hop that was already routed, and the call then
// fails with ErrInfeasible rather than dropping the flow.
func AllOrNothing(g *graph.Graph, tm *traffic.Matrix, weights []float64) (*Flow, error) {
	return AllOrNothingInto(g, tm, weights, nil)
}

// AllOrNothingInto is AllOrNothing with an optional reusable output flow
// (nil allocates a fresh one). A reused flow must have been created for
// the same graph and exactly the destinations of tm — NewFlow(g,
// tm.Destinations()) — and is rejected otherwise (Flow.CheckReuse).
// Iterative algorithms call this once per iteration, so reuse removes
// the dominant allocation; a reused flow also supplies the destination
// list, so no per-call list is built.
//
// Destinations are routed concurrently: each commodity's assignment
// depends only on the shared weights and writes only its own per-
// destination vector, so the result is bit-identical to the sequential
// loop for any worker count (Total is rebuilt in destination order).
func AllOrNothingInto(g *graph.Graph, tm *traffic.Matrix, weights []float64, flow *Flow) (*Flow, error) {
	if flow == nil {
		flow = NewFlow(g, tm.Destinations())
	} else if err := flow.CheckReuse(g, tm); err != nil {
		return nil, err
	}
	dests := flow.Destinations()
	errs := make([]error, len(dests))
	par.Do(len(dests), func(i int) {
		ws := workspaces.Get(g)
		errs[i] = aonDestination(g, tm, weights, dests[i], flow.PerDest[dests[i]], ws)
		workspaces.Put(ws)
	})
	// Scanning in index order keeps the reported failure independent
	// of scheduling order.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	flow.RecomputeTotal()
	return flow, nil
}

// CheckReuse verifies that f can be overwritten as a flow of tm on g:
// it carries a commodity for exactly tm's destinations, and Total and
// every commodity vector are NumLinks long. An extra commodity would
// keep a stale vector that is summed into Total, and a short vector
// would be indexed out of range. The check builds no destination list.
func (f *Flow) CheckReuse(g *graph.Graph, tm *traffic.Matrix) error {
	m := g.NumLinks()
	if len(f.Total) != m {
		return fmt.Errorf("mcf: reused flow has %d total entries for %d links", len(f.Total), m)
	}
	dests := 0
	for t := range tm.Size() {
		if !tm.IsDestination(t) {
			continue
		}
		dests++
		ft, ok := f.PerDest[t]
		if !ok {
			return fmt.Errorf("mcf: reused flow lacks commodity %d", t)
		}
		if len(ft) != m {
			return fmt.Errorf("mcf: reused flow's commodity %d has %d entries for %d links", t, len(ft), m)
		}
	}
	// Every destination is present and destinations are distinct, so a
	// larger map holds a commodity the demand matrix does not.
	if len(f.PerDest) != dests {
		return fmt.Errorf("mcf: reused flow carries %d commodities, demand matrix has %d destinations", len(f.PerDest), dests)
	}
	return nil
}

// aonDestination routes commodity t's demand on shortest paths under
// weights, overwriting ft (the commodity's per-link vector). All scratch
// comes from ws, so steady-state calls allocate only on error paths.
func aonDestination(g *graph.Graph, tm *traffic.Matrix, weights []float64, t int, ft []float64, ws *graph.Workspace) error {
	sp, err := ws.DijkstraTo(g, weights, t)
	if err != nil {
		return err
	}
	for s := 0; s < g.NumNodes(); s++ {
		if tm.At(s, t) > 0 && sp.Dist[s] == graph.Unreachable {
			return fmt.Errorf("%w: no path from %d to %d", ErrInfeasible, s, t)
		}
	}
	// Accumulate demand down the chosen next-hop chains in decreasing
	// distance order (ties by ID) so each node is processed after all
	// its inflow.
	order := ws.NodesByDistDesc(sp)
	acc := ws.AccBuffer(g)
	for i := range ft {
		ft[i] = 0
	}
	for _, u := range order {
		acc[u] = 0
	}
	for _, u := range order {
		if u == t {
			continue
		}
		amount := acc[u] + tm.At(u, t)
		if amount == 0 {
			continue
		}
		id, v := nextHop(g, weights, sp.Dist, u)
		if id < 0 {
			return fmt.Errorf("%w: stranded flow %v at node %d for destination %d", ErrInfeasible, amount, u, t)
		}
		// The next-hop slack is absolute, so weights below it (prices
		// near 1e-12) can pick a head that sorts before u. Flow sent
		// there would never be forwarded: an error, not a silent loss.
		// Flow into t itself is delivered wherever t sorts.
		if v != t && (sp.Dist[v] > sp.Dist[u] || sp.Dist[v] == sp.Dist[u] && v < u) {
			return fmt.Errorf("%w: flow %v for destination %d would return from node %d to already-routed node %d (link weights below the 1e-12 next-hop slack)", ErrInfeasible, amount, t, u, v)
		}
		ft[id] += amount
		acc[v] += amount
	}
	return nil
}

// nextHop returns u's chosen out-link toward the destination of dist
// and that link's head: the smallest-ID link on a shortest path, up to
// an absolute slack of 1e-12, or (-1, -1) when none qualifies.
func nextHop(g *graph.Graph, weights, dist []float64, u int) (id, head int) {
	limit := dist[u] + 1e-12
	for _, id := range g.OutLinks(u) {
		v := g.Link(id).To
		if dv := dist[v]; dv != graph.Unreachable && dv+weights[id] <= limit {
			return id, v
		}
	}
	return -1, -1
}
