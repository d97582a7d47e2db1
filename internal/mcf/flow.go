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
// demand matrix sized for another graph, a reused flow that does not
// fit its demand matrix (Flow.CheckReuse), or a propagation without a
// DAG for some destination (Flow.Propagate).
var ErrBadInput = errors.New("mcf: bad input")

// Flow is a destination-aggregated multi-commodity flow: PerDest[t][e]
// is the flow of commodity t (traffic destined to node t) on link e, and
// Total[e] the aggregate f_e.
type Flow struct {
	// PerDest maps each destination to its commodity vector, a row of
	// the flow's commodity table, which lists the rows in Destinations()
	// order. Write a row in place and never replace it; passes, Blend,
	// RecomputeTotal, Rows and the rest of the table's users walk the
	// rows, not the map. A flow built by hand, or whose entries were
	// replaced, added or deleted, still reads right: each of those entry
	// points first takes the map's current vectors as the table's rows,
	// so no stale row is ever read or written.
	PerDest map[int][]float64
	Total   []float64
	// dests is the table's destination list, sorted and distinct: the
	// list NewFlow received, shared by clones and never modified, until
	// the map's keys are found to differ, when it is rebuilt from them.
	dests []int
	// tab is the commodity table and the state of the flow's passes,
	// built by the first walk of the table, so NewFlow allocates only the
	// map and its vectors. Clones do not share it.
	tab *table
}

// table is a flow's commodity table, with what its passes keep between
// calls so that a pass into a reused flow allocates nothing.
type table struct {
	// rows[i] is dests[i]'s commodity vector, the value PerDest held for
	// it when the table was last read from the map.
	rows [][]float64
	// orders[i] is the node order of dests[i]'s last all-or-nothing pass
	// into this flow (AllOrNothingInto), where the next pass starts.
	orders [][]int
	// errs, run and in are a pass's fan-out (fan): the per-commodity
	// error slots, the function handed to par.Do, built by the flow's
	// first pass, and the current pass's inputs, dropped when it returns.
	errs []error
	run  func(i int)
	in   passInput
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
// increasing order. It is the table's list, without a copy, while that
// list still names exactly PerDest's keys, and otherwise (a flow built
// by hand or whose map was edited) the sorted keys. Callers must not
// modify the result.
func (f *Flow) Destinations() []int {
	if len(f.dests) == len(f.PerDest) && f.keepsDests() {
		return f.dests
	}
	return slices.Sorted(maps.Keys(f.PerDest))
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

// Rows returns the flow's commodity table: row i is the vector PerDest
// holds for Destinations()[i], read from the map now. Callers may write
// the rows in place but must not modify the returned slice. A caller
// that never replaces an entry may keep the result: the rows stay the
// map's vectors.
func (f *Flow) Rows() [][]float64 {
	if f.tab == nil {
		f.tab = &table{}
	}
	tab := f.tab
	if len(f.PerDest) == len(f.dests) {
		if len(tab.rows) != len(f.dests) {
			tab.rows = make([][]float64, len(f.dests))
		}
		fresh := true
		for i, t := range f.dests {
			ft, ok := f.PerDest[t]
			if !ok {
				fresh = false
				break
			}
			tab.rows[i] = ft
		}
		if fresh {
			return tab.rows
		}
	}
	// The keys are not the kept list: take the sorted keys as the
	// table's destinations, with no node order kept for them.
	f.dests = slices.Sorted(maps.Keys(f.PerDest))
	tab.rows = make([][]float64, len(f.dests))
	for i, t := range f.dests {
		tab.rows[i] = f.PerDest[t]
	}
	tab.orders = nil
	return tab.rows
}

// keepOrders makes f's table keep a node order for each of its
// commodities. A table without one order per row gets new, empty ones,
// each with room for n nodes, which send its next pass through
// Dijkstra.
func (f *Flow) keepOrders(n int) {
	tab := f.tab
	k := len(tab.rows)
	if len(tab.orders) == k {
		return
	}
	tab.orders = make([][]int, k)
	buf := make([]int, k*n)
	for i := range tab.orders {
		tab.orders[i] = buf[i*n : i*n : (i+1)*n]
	}
}

// RecomputeTotal rebuilds Total from the per-destination flows. The
// commodities are accumulated in destination order, not map order:
// float addition is not associative, so a map-ordered sum would make
// bitwise results vary run to run, breaking the scenario engine's
// reproducibility contract (identical bits for any worker count AND
// across processes).
func (f *Flow) RecomputeTotal() {
	f.Rows()
	f.sumRows()
}

// sumRows rebuilds Total from the table, in destination order.
func (f *Flow) sumRows() {
	clear(f.Total)
	for _, row := range f.tab.rows {
		for e, x := range row {
			f.Total[e] += x
		}
	}
}

// Blend sets f to (1-gamma)*f + gamma*other, the Frank-Wolfe step. It
// blends each of f's commodities with other's commodity for the same
// destination.
func (f *Flow) Blend(other *Flow, gamma float64) {
	for i, row := range f.Rows() {
		blendRow(row, other.PerDest[f.dests[i]], gamma)
	}
	blendRow(f.Total, other.Total, gamma)
}

func blendRow(v, o []float64, gamma float64) {
	for i := range v {
		v[i] = (1-gamma)*v[i] + gamma*o[i]
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
	for id := range g.NumLinks() {
		if c := g.Link(id).Cap; f.Total[id] > c+tol {
			return fmt.Errorf("%w: link %d carries %v > capacity %v", ErrInfeasible, id, f.Total[id], c)
		}
	}
	return nil
}
