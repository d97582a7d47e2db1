package explicit

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/par"
	"repro/internal/traffic"
)

// ErrBadInput reports inconsistent arguments.
var ErrBadInput = errors.New("explicit: bad input")

// workspaces recycles per-worker graph scratch across builds; each
// parallel destination worker draws a private arena.
var workspaces graph.WorkspacePool

// UnitFlows holds, for every ordered node pair (s, t), the per-link flow
// of ONE traffic unit ECMP-routed from s to t under a fixed weight
// vector (the shortest-path DAG toward t with even splits, exactly OSPF
// forwarding). Segment routing and the MPLS fallback assemble every
// routing they consider from these vectors by linearity, which is what
// makes the greedy midpoint search cheap: evaluating a detour is one
// axpy pass over the links, not a propagation.
type UnitFlows struct {
	g *graph.Graph
	n int
	// unit[t*n+s] is the per-link unit flow s -> t; nil when s == t or
	// when s cannot reach t.
	unit [][]float64
	// supp[t*n+s] is the bitset of links carrying nonzero unit flow
	// s -> t — the pair's support, used by the midpoint screen to test
	// "does this leg touch a bottleneck link" in a handful of word ANDs
	// instead of a full axpy evaluation.
	supp [][]uint64
}

// BuildUnitFlows propagates a unit of demand from every source down each
// destination's even-ECMP shortest-path DAG. Destinations are built on
// parallel workers writing disjoint slots, so the result is bitwise
// identical for any worker count. tol is the equal-cost Dijkstra
// tolerance (0 = exact), matching routing.BuildOSPF.
func BuildUnitFlows(g *graph.Graph, weights []float64, tol float64) (*UnitFlows, error) {
	if len(weights) != g.NumLinks() {
		return nil, fmt.Errorf("%w: got %d weights for %d links", ErrBadInput, len(weights), g.NumLinks())
	}
	n := g.NumNodes()
	u := &UnitFlows{g: g, n: n, unit: make([][]float64, n*n), supp: make([][]uint64, n*n)}
	words := (g.NumLinks() + 63) / 64
	errs := make([]error, n)
	par.Do(n, func(t int) {
		ws := workspaces.Get(g)
		defer workspaces.Put(ws)
		d, err := ws.BuildDAG(g, weights, t, tol)
		if err != nil {
			errs[t] = fmt.Errorf("explicit: DAG for destination %d: %w", t, err)
			return
		}
		ratio := make([]float64, g.NumLinks())
		graph.EvenSplitsInto(g, d, ratio)
		demand := ws.DemandBuffer(g)
		for i := range demand {
			demand[i] = 0
		}
		for s := 0; s < n; s++ {
			if s == t || d.Dist[s] == graph.Unreachable {
				continue
			}
			vec := make([]float64, g.NumLinks())
			demand[s] = 1
			err := ws.PropagateDownInto(g, d, demand, ratio, vec)
			demand[s] = 0
			if err != nil {
				errs[t] = fmt.Errorf("explicit: unit flow %d -> %d: %w", s, t, err)
				return
			}
			u.unit[t*n+s] = vec
			bs := make([]uint64, words)
			for e, v := range vec {
				if v > 0 {
					bs[e/64] |= 1 << (e % 64)
				}
			}
			u.supp[t*n+s] = bs
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return u, nil
}

// Unit returns the per-link unit flow s -> t, nil when s == t or t is
// unreachable from s. The slice is shared — callers must not mutate it.
func (u *UnitFlows) Unit(s, t int) []float64 { return u.unit[t*u.n+s] }

// Support returns the link bitset of Unit(s, t) (bit e set iff the pair
// puts nonzero flow on link e), nil exactly when Unit is nil. The slice
// is shared — callers must not mutate it.
func (u *UnitFlows) Support(s, t int) []uint64 { return u.supp[t*u.n+s] }

// overlaps reports whether two link bitsets share a set bit.
func overlaps(a, b []uint64) bool {
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// CheckRoutable reports the first demand of tm whose pair has no unit
// flow (destination unreachable from the source).
func (u *UnitFlows) CheckRoutable(tm *traffic.Matrix) error {
	for _, d := range tm.Demands() {
		if u.Unit(d.Src, d.Dst) == nil {
			return fmt.Errorf("%w: demand %d -> %d is not routable", ErrBadInput, d.Src, d.Dst)
		}
	}
	return nil
}

// DirectFlow assembles the all-direct routing of a matrix — every demand
// on its own ECMP shortest paths, the 0-detour baseline both schemes
// start from (identical to OSPF forwarding under the same weights).
func (u *UnitFlows) DirectFlow(tm *traffic.Matrix) (*mcf.Flow, error) {
	if err := u.CheckRoutable(tm); err != nil {
		return nil, err
	}
	f := mcf.NewFlow(u.g, tm.Destinations())
	for _, d := range tm.Demands() {
		axpy(f.PerDest[d.Dst], d.Volume, u.Unit(d.Src, d.Dst))
	}
	f.RecomputeTotal()
	return f, nil
}

// MaxUtil returns the maximum link utilization of an aggregate per-link
// flow vector.
func MaxUtil(g *graph.Graph, total []float64) float64 {
	var mlu float64
	for e := 0; e < g.NumLinks(); e++ {
		if util := total[e] / g.Link(e).Cap; util > mlu {
			mlu = util
		}
	}
	return mlu
}

// axpy adds a*x into y element-wise.
func axpy(y []float64, a float64, x []float64) {
	for i, v := range x {
		y[i] += a * v
	}
}
