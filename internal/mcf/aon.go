package mcf

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/traffic"
)

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
// list, so no per-call list is built. The weights are checked once per
// call (graph.CheckWeights), not once per destination.
//
// A reused flow also carries each commodity's node order from its last
// pass, and the next pass starts from it: the distances are recomputed
// along that order and kept only if no link undercuts them, which makes
// them Dijkstra's bit for bit; otherwise that commodity runs Dijkstra
// (aonDestination). No result depends on the kept order: every output
// and error is the one a fresh flow gets.
//
// Destinations are routed concurrently: each commodity's assignment
// depends only on the shared weights and writes only its own row of the
// flow's table and its own kept order, so the result is bit-identical to
// the sequential loop for any worker count (Total is rebuilt in
// destination order). A call into a reused flow allocates nothing.
func AllOrNothingInto(g *graph.Graph, tm *traffic.Matrix, weights []float64, flow *Flow) (*Flow, error) {
	if flow == nil {
		flow = NewFlow(g, tm.Destinations())
	}
	if err := flow.prepare(g, tm); err != nil {
		return nil, err
	}
	if err := graph.CheckWeights(g, weights); err != nil {
		return nil, err
	}
	flow.keepOrders(g.NumNodes())
	if err := flow.fan(passInput{g: g, tm: tm, fill: aonFill, vec: weights}); err != nil {
		return nil, err
	}
	return flow, nil
}

// aonFill is AllOrNothingInto's fill: row i's destination routed on
// shortest paths under the pass's weights, from its kept order.
func aonFill(f *Flow, ws *graph.Workspace, i int) error {
	tab := f.tab
	return aonDestination(tab.in.g, tab.in.tm, tab.in.vec, f.dests[i], tab.rows[i], &tab.orders[i], ws)
}

// CheckReuse verifies that f can be overwritten as a flow of tm on g:
// it carries a commodity for exactly tm's destinations, and Total and
// every commodity vector are NumLinks long. An extra commodity would
// keep a stale vector that is summed into Total, and a short vector
// would be indexed out of range. The check builds no destination list
// and changes nothing; its errors match ErrBadInput.
func (f *Flow) CheckReuse(g *graph.Graph, tm *traffic.Matrix) error {
	m := g.NumLinks()
	if len(f.Total) != m {
		return inputError(fmt.Sprintf("mcf: reused flow has %d total entries for %d links", len(f.Total), m))
	}
	dests := 0
	for t := range tm.Size() {
		if !tm.IsDestination(t) {
			continue
		}
		dests++
		ft, ok := f.PerDest[t]
		if !ok {
			return inputError(fmt.Sprintf("mcf: reused flow lacks commodity %d", t))
		}
		if len(ft) != m {
			return inputError(fmt.Sprintf("mcf: reused flow's commodity %d has %d entries for %d links", t, len(ft), m))
		}
	}
	// Every destination is present and destinations are distinct, so a
	// larger map holds a commodity the demand matrix does not.
	if len(f.PerDest) != dests {
		return inputError(fmt.Sprintf("mcf: reused flow carries %d commodities, demand matrix has %d destinations", len(f.PerDest), dests))
	}
	return nil
}

// inputError is the error of CheckReuse and of Propagate's input
// checks. It matches ErrBadInput, so callers can tell a misfit input
// from a failed pass, and reads as CheckReuse's errors always have.
type inputError string

func (e inputError) Error() string { return string(e) }

func (inputError) Is(target error) bool { return target == ErrBadInput }

// errUndercut reports a warm pass whose distances some link undercuts.
var errUndercut = errors.New("mcf: kept order is stale")

// aonDestination routes commodity t's demand on shortest paths under
// weights, overwriting ft (the commodity's per-link vector) and *order
// (its kept node order). A kept order of every node takes the warm
// path (warmDist); an undercut link, any error, or no kept order sends
// the commodity through Dijkstra, whose pass reports the errors. All
// scratch comes from ws, so steady-state calls allocate only on error
// paths.
func aonDestination(g *graph.Graph, tm *traffic.Matrix, weights []float64, t int, ft []float64, order *[]int, ws *graph.Workspace) error {
	if len(*order) == g.NumNodes() {
		dist := ws.DistBuffer(g)
		warmDist(g, weights, t, *order, dist)
		if assign(g, tm, weights, dist, t, *order, ft, ws.AccBuffer(g)) == nil {
			return nil
		}
	}
	dist, o, err := ws.DijkstraOrder(g, weights, t, (*order)[:0])
	*order = o
	if err != nil {
		return err
	}
	return assign(g, tm, weights, dist, t, o, ft, ws.AccBuffer(g))
}

// warmDist recomputes commodity t's distances along order, a
// permutation of the nodes sorted by an earlier pass's distances, and
// re-sorts order by the new ones. Walking order from its end, each node
// takes the least fl(dist[v] + w) over its out-links into nodes already
// placed, so every finite distance is a real walk's length; a node with
// no such link stays Unreachable. The sort is an insertion sort, since
// small weight steps leave the order nearly sorted.
//
// The distances are Dijkstra's bit for bit exactly when no link
// undercuts them (dist[v] + w < dist[u]), which assign checks: then
// each is at most Dijkstra's (follow Dijkstra's parents from t) and at
// least it (each is a real walk's length, and Dijkstra's is the least).
func warmDist(g *graph.Graph, weights []float64, t int, order []int, dist []float64) {
	for u := range dist {
		dist[u] = graph.Unreachable
	}
	dist[t] = 0
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if u == t {
			continue
		}
		d := graph.Unreachable
		for _, id := range g.OutLinks(u) {
			if c := dist[g.Link(id).To] + weights[id]; c < d {
				d = c
			}
		}
		dist[u] = d
	}
	for i := 1; i < len(order); i++ {
		u, du := order[i], dist[order[i]]
		j := i
		for ; j > 0; j-- {
			v := order[j-1]
			if dv := dist[v]; dv > du || dv == du && v < u {
				break
			}
			order[j] = v
		}
		order[j] = u
	}
}

// assign routes commodity t's demand down next-hop chains under dist,
// walking order (every node by decreasing distance, ties by increasing
// ID) so each node is processed after all its inflow. A node's next
// hop is its smallest-ID out-link on a shortest path, up to an absolute
// slack of 1e-12. The same scan over each node's out-links returns
// errUndercut if one undercuts dist, which a pass under Dijkstra's
// distances never does.
func assign(g *graph.Graph, tm *traffic.Matrix, weights, dist []float64, t int, order []int, ft, acc []float64) error {
	clear(ft)
	clear(acc)
	for _, u := range order {
		if u == t {
			continue
		}
		du := dist[u]
		amount := acc[u] + tm.At(u, t)
		// Unreachable nodes come first, by ID, and receive no flow, so
		// the first of them with demand is the smallest such source.
		if du == graph.Unreachable && amount > 0 {
			return fmt.Errorf("%w: no path from %d to %d", ErrInfeasible, u, t)
		}
		limit := du + 1e-12
		hop, v := -1, -1
		for _, id := range g.OutLinks(u) {
			head := g.Link(id).To
			dh := dist[head]
			c := dh + weights[id]
			if c < du {
				return errUndercut
			}
			if hop < 0 && dh != graph.Unreachable && c <= limit {
				hop, v = id, head
			}
		}
		if amount == 0 {
			continue
		}
		if hop < 0 {
			return fmt.Errorf("%w: stranded flow %v at node %d for destination %d", ErrInfeasible, amount, u, t)
		}
		// The next-hop slack is absolute, so weights below it (prices
		// near 1e-12) can pick a head that sorts before u. Flow sent
		// there would never be forwarded: an error, not a silent loss.
		// Flow into t itself is delivered wherever t sorts.
		if v != t && (dist[v] > du || dist[v] == du && v < u) {
			return fmt.Errorf("%w: flow %v for destination %d would return from node %d to already-routed node %d (link weights below the 1e-12 next-hop slack)", ErrInfeasible, amount, t, u, v)
		}
		ft[hop] += amount
		acc[v] += amount
	}
	return nil
}
