package mcf

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// ErrInfeasible reports that demands cannot be routed within the
// network's capacities (or cannot be routed at all).
var ErrInfeasible = errors.New("mcf: infeasible")

// ErrBadInput reports arguments of mismatched shape: a weight vector or
// demand matrix sized for another graph.
var ErrBadInput = errors.New("mcf: bad input")

// Flow is a destination-aggregated multi-commodity flow: PerDest[t][e]
// is the flow of commodity t (traffic destined to node t) on link e, and
// Total[e] the aggregate f_e.
type Flow struct {
	PerDest map[int][]float64
	Total   []float64
	// dests is the sorted, distinct destination list NewFlow received,
	// shared by clones and never modified. It is the flow's commodity
	// order while it names exactly PerDest's keys.
	dests []int
	// orders[i] is the node order of Destinations()[i]'s last
	// all-or-nothing pass into this flow (AllOrNothingInto), where the
	// next pass starts. Clones do not share it.
	orders [][]int
}

// NewFlow returns an all-zero flow for the given destinations.
func NewFlow(g *graph.Graph, dests []int) *Flow {
	f := &Flow{
		PerDest: make(map[int][]float64, len(dests)),
		Total:   make([]float64, g.NumLinks()),
		dests:   slices.Clone(dests),
	}
	slices.Sort(f.dests)
	f.dests = slices.Compact(f.dests)
	for _, t := range f.dests {
		f.PerDest[t] = make([]float64, g.NumLinks())
	}
	return f
}

// Clone returns a deep copy of the flow. The copy keeps no node order,
// so its first all-or-nothing pass runs Dijkstra for every commodity.
func (f *Flow) Clone() *Flow {
	c := &Flow{
		PerDest: make(map[int][]float64, len(f.PerDest)),
		Total:   append([]float64(nil), f.Total...),
		dests:   f.dests,
	}
	for t, v := range f.PerDest {
		c.PerDest[t] = append([]float64(nil), v...)
	}
	return c
}

// Destinations returns the destinations f carries a commodity for, in
// increasing order. It is the list NewFlow kept, without a copy, while
// that list still names exactly PerDest's keys, and otherwise (a flow
// built by hand or whose map was edited) the sorted keys. Callers must
// not modify the result.
func (f *Flow) Destinations() []int {
	if len(f.dests) == len(f.PerDest) && f.keepsDests() {
		return f.dests
	}
	return slices.Sorted(maps.Keys(f.PerDest))
}

// keepOrders makes f keep a node order for each of k commodities. A
// flow without k orders gets new, empty ones, each with room for n
// nodes, which send its next pass through Dijkstra.
func (f *Flow) keepOrders(k, n int) {
	if len(f.orders) == k {
		return
	}
	f.orders = make([][]int, k)
	buf := make([]int, k*n)
	for i := range f.orders {
		f.orders[i] = buf[i*n : i*n : (i+1)*n]
	}
}

// keepsDests reports whether every kept destination still has a
// commodity; with equal counts, the kept list is then the key set.
func (f *Flow) keepsDests() bool {
	for _, t := range f.dests {
		if _, ok := f.PerDest[t]; !ok {
			return false
		}
	}
	return true
}

// RecomputeTotal rebuilds Total from the per-destination flows. The
// commodities are accumulated in destination order, not map order:
// float addition is not associative, so a map-ordered sum would make
// bitwise results vary run to run, breaking the scenario engine's
// reproducibility contract (identical bits for any worker count AND
// across processes).
func (f *Flow) RecomputeTotal() {
	for i := range f.Total {
		f.Total[i] = 0
	}
	for _, t := range f.Destinations() {
		for i, x := range f.PerDest[t] {
			f.Total[i] += x
		}
	}
}

// Blend sets f to (1-gamma)*f + gamma*g, the Frank-Wolfe step.
func (f *Flow) Blend(other *Flow, gamma float64) {
	for t, v := range f.PerDest {
		o := other.PerDest[t]
		for i := range v {
			v[i] = (1-gamma)*v[i] + gamma*o[i]
		}
	}
	for i := range f.Total {
		f.Total[i] = (1-gamma)*f.Total[i] + gamma*other.Total[i]
	}
}

// CheckConservation verifies that the flow routes exactly the demand
// matrix: for every destination t and node s != t, the net outflow of
// commodity t at s equals the demand d^t_s, and no commodity flow is
// negative. tol is the absolute slack allowed per node.
func (f *Flow) CheckConservation(g *graph.Graph, tm *traffic.Matrix, tol float64) error {
	for _, t := range tm.Destinations() {
		ft, ok := f.PerDest[t]
		if !ok {
			return fmt.Errorf("mcf: flow missing commodity for destination %d", t)
		}
		for e, v := range ft {
			if v < -tol {
				return fmt.Errorf("mcf: commodity %d has negative flow %v on link %d", t, v, e)
			}
		}
		for s := 0; s < g.NumNodes(); s++ {
			if s == t {
				continue
			}
			var net float64
			for _, id := range g.OutLinks(s) {
				net += ft[id]
			}
			for _, id := range g.InLinks(s) {
				net -= ft[id]
			}
			if want := tm.At(s, t); math.Abs(net-want) > tol {
				return fmt.Errorf("mcf: commodity %d at node %d: net outflow %v, want %v", t, s, net, want)
			}
		}
	}
	return nil
}

// CheckCapacity verifies Total <= capacity + tol on every link.
func (f *Flow) CheckCapacity(g *graph.Graph, tol float64) error {
	for _, l := range g.Links() {
		if f.Total[l.ID] > l.Cap+tol {
			return fmt.Errorf("%w: link %d carries %v > capacity %v", ErrInfeasible, l.ID, f.Total[l.ID], l.Cap)
		}
	}
	return nil
}
