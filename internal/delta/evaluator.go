package delta

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/traffic"
)

// ErrBadInput reports inconsistent arguments.
var ErrBadInput = errors.New("delta: bad input")

// Evaluator holds the full ECMP routing evaluation of one weight vector
// on one (graph, demand matrix) pair — per-destination shortest-path
// DAGs, even split ratios, per-destination link flows, the aggregate
// flow, its per-link Fortz-Thorup terms and their sum — and updates it
// incrementally: weight events (one link or an atomic set) re-route
// only the destinations the change can affect, repairing each one's DAG
// in place (graph.Workspace.RepairDAG) rather than rebuilding it,
// re-splitting only the nodes whose next hops changed and re-propagating
// in place; SetDemand/ReplaceDemands re-propagate only the destinations
// whose demand columns changed. Weight events and SetDemand then
// re-sum the aggregate and re-cost only the links whose
// per-destination flow moved. The rest of the state is kept
// bit-for-bit.
//
// The Evaluator owns the traffic matrix handed to NewEvaluator for its
// lifetime: demand events mutate it so it always describes the current
// state, and callers must not modify it concurrently.
//
// An Evaluator is not safe for concurrent mutation, but the Try*
// queries are pure reads of the shared state given a private Scratch,
// which is what lets localsearch.Search score a whole candidate
// neighborhood — and internal/serve answer WhatIf queries — in
// parallel against one state.
type Evaluator struct {
	g     *graph.Graph
	tm    *traffic.Matrix
	caps  []float64 // per-link capacities, cached to keep cost sums alloc-free
	w     []float64
	dests []int

	demands [][]float64  // demands[i][s]: volume at s toward dests[i]
	dags    []*graph.DAG // owned per-destination arenas, refilled in place
	splits  [][]float64  // per-destination even ECMP ratios
	flows   [][]float64  // per-destination per-link flow
	total   []float64    // aggregate flow, each link summed in destination order
	terms   []float64    // per-link Fortz-Thorup terms of total
	cost    float64      // terms summed in link order

	ws       *graph.Workspace
	marks    graph.Marks // links whose per-destination flow the event being applied moved
	affected []int       // scratch for the weight events' affected-destination screen
	prev     []float64   // scratch: the weights a weight event replaced
	moved    int         // node distances the last accepted weight event moved
	resummed int         // aggregate links the last accepted event re-summed
}

// Metrics is the engine's read-out of one routing state: the
// Fortz-Thorup cost, the maximum link utilization, and the paper's
// log-spare utility (-Inf when any link saturates). Every field is
// bit-identical to the corresponding objective-package function on the
// same aggregate flow.
type Metrics struct {
	Cost    float64 `json:"fortz"`
	MLU     float64 `json:"mlu"`
	Utility float64 `json:"utility"`
}

// dagTol is the equal-cost tolerance of every shortest-path DAG the
// package builds: 0, exact shortest paths, the OSPF router's
// configuration. dagEps is the slack BuildDAG applies for it.
const dagTol = 0

var dagEps = graph.EffectiveDAGTol(dagTol)

// NewEvaluator fully evaluates the weight vector and returns the
// resulting state. Every positive demand must be routable under the
// weights; an unreachable demand is an error, mirroring the forwarding
// engine.
func NewEvaluator(g *graph.Graph, tm *traffic.Matrix, weights []float64) (*Evaluator, error) {
	if g.NumLinks() == 0 {
		return nil, fmt.Errorf("%w: graph has no links", ErrBadInput)
	}
	if tm.Size() != g.NumNodes() {
		return nil, fmt.Errorf("%w: %d-node matrix for %d-node graph", ErrBadInput, tm.Size(), g.NumNodes())
	}
	dests := tm.Destinations()
	if len(dests) == 0 {
		return nil, fmt.Errorf("%w: empty traffic matrix", ErrBadInput)
	}
	ev := &Evaluator{
		g:     g,
		tm:    tm,
		dests: dests,
		caps:  g.Capacities(),
		w:     make([]float64, g.NumLinks()),
		ws:    graph.NewWorkspace(g),
		total: make([]float64, g.NumLinks()),
		terms: make([]float64, g.NumLinks()),
	}
	ev.marks.Reset(g.NumLinks())
	ev.demands = make([][]float64, len(dests))
	ev.dags = make([]*graph.DAG, len(dests))
	ev.splits = make([][]float64, len(dests))
	ev.flows = make([][]float64, len(dests))
	for i, t := range dests {
		ev.demands[i] = tm.ToDestination(t)
		ev.dags[i] = &graph.DAG{}
		ev.splits[i] = make([]float64, g.NumLinks())
		ev.flows[i] = make([]float64, g.NumLinks())
	}
	if err := ev.Reevaluate(weights); err != nil {
		return nil, err
	}
	return ev, nil
}

// Cost returns the Fortz-Thorup cost of the current weight vector.
func (ev *Evaluator) Cost() float64 { return ev.cost }

// Metrics returns the full metric read-out of the current state.
func (ev *Evaluator) Metrics() Metrics {
	return Metrics{Cost: ev.cost, MLU: mluOf(ev.caps, ev.total), Utility: utilityOf(ev.caps, ev.total)}
}

// Weights returns a copy of the current weight vector.
func (ev *Evaluator) Weights() []float64 { return append([]float64(nil), ev.w...) }

// CopyWeights copies the current weight vector into dst without
// allocating, returning the number of entries copied.
func (ev *Evaluator) CopyWeights(dst []float64) int { return copy(dst, ev.w) }

// Weight returns the current weight of one link.
func (ev *Evaluator) Weight(link int) float64 { return ev.w[link] }

// TotalFlow returns a copy of the aggregate per-link flow.
func (ev *Evaluator) TotalFlow() []float64 { return append([]float64(nil), ev.total...) }

// NumDestinations returns the number of destinations with positive
// demand — the breadth one event's affected-destination screen runs
// over.
func (ev *Evaluator) NumDestinations() int { return len(ev.dests) }

// Matrix returns the evaluator-owned traffic matrix describing the
// current demand state. Callers must treat it as read-only; demand
// events are the only way to change it.
func (ev *Evaluator) Matrix() *traffic.Matrix { return ev.tm }

// Footprint approximates the bytes held by the evaluator's arenas —
// weight/capacity/flow/cost-term vectors, the link marks, per-destination
// DAGs, splits and flows — the number /statz reports as warm-state
// memory. The workspace's internal scratch (a few per-node vectors) is
// not counted.
func (ev *Evaluator) Footprint() int64 {
	const word = 8
	b := int64(cap(ev.w)+cap(ev.caps)+cap(ev.total)+cap(ev.terms)) * word
	b += int64(cap(ev.affected)+cap(ev.dests)) * word
	b += ev.marks.Bytes()
	for i := range ev.dests {
		b += int64(cap(ev.demands[i])+cap(ev.splits[i])+cap(ev.flows[i])) * word
		d := ev.dags[i]
		b += int64(cap(d.Dist)) * word
		for u := range d.Out {
			b += int64(cap(d.Out[u])) * word
		}
	}
	return b
}

// Reevaluate replaces the weight vector and rebuilds the whole state
// from scratch — the oracle every incremental update must match
// bit-for-bit, and the full-re-evaluation baseline the bench harness
// times the incremental path against. Allocation-free in steady state.
func (ev *Evaluator) Reevaluate(weights []float64) error {
	if len(weights) != ev.g.NumLinks() {
		return fmt.Errorf("%w: got %d weights for %d links", ErrBadInput, len(weights), ev.g.NumLinks())
	}
	copy(ev.w, weights)
	for i := range ev.dests {
		built, err := ev.ws.BuildDAG(ev.g, ev.w, ev.dests[i], dagTol)
		if err != nil {
			return err
		}
		ev.dags[i].CopyFrom(built)
		graph.EvenSplitsInto(ev.g, ev.dags[i], ev.splits[i])
		if err := ev.ws.PropagateDownInto(ev.g, ev.dags[i], ev.demands[i], ev.splits[i], ev.flows[i]); err != nil {
			return unroutable(ev.dests[i], err)
		}
	}
	ev.resumAll()
	return nil
}

// SetWeight applies one single-link weight change incrementally — the
// one-link case of setWeights. Allocation-free in steady state.
func (ev *Evaluator) SetWeight(link int, w float64) error {
	return ev.setWeights([]int{link}, []float64{w})
}

// setWeights applies one atomic weight event: link links[k] takes
// weight w[k]. Destinations the change cannot affect (see
// appendAffected) keep their DAGs, splits and flows untouched; affected
// ones have their DAGs repaired in place and, unless the repair kept
// every flow, the nodes whose Out list it changed re-split and their
// flows re-propagated in place, marking every link whose flow moved
// (resplit). Only the marked links of the aggregate are then re-summed
// over every destination in order and re-costed (resumMarked), so the
// resulting state — flows, total, terms and cost — is bit-identical to
// Reevaluate on the modified vector. If an affected destination cannot
// be routed under the new weights (a stranded demand), the old weights
// come back and the destinations already repaired are repaired back
// under them, bit for bit: the event is rejected with ErrBadInput and
// the state is untouched. Allocation-free in steady state.
func (ev *Evaluator) setWeights(links []int, w []float64) error {
	if err := ev.checkEvent(links, w); err != nil {
		return err
	}
	ev.affected = ev.appendAffected(ev.affected[:0], links, w)
	ev.prev = ev.prev[:0]
	for k, l := range links {
		ev.prev = append(ev.prev, ev.w[l])
		ev.w[l] = w[k]
	}
	ev.moved = 0
	for k, i := range ev.affected {
		moved, err := ev.ws.RepairDAG(ev.g, ev.w, ev.dags[i], links, ev.prev)
		if err != nil {
			ev.undo(links, w, ev.affected[:k])
			return err
		}
		ev.moved += moved
		if err := ev.resplit(i); err != nil {
			ev.undo(links, w, ev.affected[:k+1])
			return err
		}
	}
	ev.resumMarked()
	return nil
}

// undo takes a rejected weight event back: the links get their old
// weights (ev.prev) again, and each destination in repaired, whose DAG
// was repaired to the event's weights w, is repaired back and re-split.
// That restores every split and flow row bit for bit, and the aggregate
// and its terms were never touched, so the marks are dropped unsummed.
func (ev *Evaluator) undo(links []int, w []float64, repaired []int) {
	for k, l := range links {
		ev.w[l] = ev.prev[k]
	}
	for _, i := range repaired {
		// Cannot fail: the old weights routed every destination.
		_, _ = ev.ws.RepairDAG(ev.g, ev.w, ev.dags[i], links, w)
		_ = ev.resplit(i)
	}
	ev.marks.Clear()
	ev.affected = ev.affected[:0]
	ev.moved = 0
}

// checkEvent validates one weight event: every link in range and listed
// once, every weight non-negative and not NaN (+Inf is a failed link).
func (ev *Evaluator) checkEvent(links []int, w []float64) error {
	for k, l := range links {
		if l < 0 || l >= ev.g.NumLinks() {
			return fmt.Errorf("%w: link %d out of range", ErrBadInput, l)
		}
		if math.IsNaN(w[k]) || w[k] < 0 {
			return fmt.Errorf("%w: weight %v for link %d", ErrBadInput, w[k], l)
		}
		if slices.Contains(links[:k], l) {
			return fmt.Errorf("%w: link %d listed twice", ErrBadInput, l)
		}
	}
	return nil
}

// SetDemand updates one demand matrix entry and re-propagates only the
// affected destination's flow, in place — shortest-path DAGs and split
// ratios never change under a demand event — then re-sums and re-costs
// only the links whose flow moved. A destination whose column gains its
// first positive entry is inserted (one-time arena allocation); one
// whose column drains to zero is dropped, and either re-sums every
// link, so the destination set always matches what a from-scratch
// evaluation of the matrix would build and the resulting state is
// bit-identical to it. Rejected events (bad entry, unroutable demand,
// draining the last positive entry) leave the state untouched.
func (ev *Evaluator) SetDemand(src, dst int, v float64) error {
	ev.resummed = 0
	n := ev.g.NumNodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return fmt.Errorf("%w: demand %d->%d out of range for %d nodes", ErrBadInput, src, dst, n)
	}
	old := ev.tm.At(src, dst)
	if err := ev.tm.Set(src, dst, v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	if v == old {
		return nil
	}
	i := sort.SearchInts(ev.dests, dst)
	if i < len(ev.dests) && ev.dests[i] == dst {
		if v == 0 && !anyOtherPositive(ev.demands[i], src) {
			if len(ev.dests) == 1 {
				ev.tm.Set(src, dst, old)
				return fmt.Errorf("%w: removing demand %d->%d would leave no positive demand", ErrBadInput, src, dst)
			}
			ev.removeDest(i)
			ev.resumAll()
			return nil
		}
		if v > 0 && ev.dags[i].Dist[src] == graph.Unreachable {
			ev.tm.Set(src, dst, old)
			return fmt.Errorf("%w: demand at node %d cannot reach destination %d", ErrBadInput, src, dst)
		}
		ev.demands[i][src] = v
		// Cannot fail: reachability is pre-screened above and the DAG,
		// splits and shapes are unchanged from a valid state.
		if err := ev.ws.PropagateDownMarked(ev.g, ev.dags[i], ev.demands[i], ev.splits[i], ev.flows[i], &ev.marks); err != nil {
			return fmt.Errorf("delta: destination %d: %w", dst, err)
		}
		ev.resumMarked()
		return nil
	}
	if v == 0 {
		return nil
	}
	st, err := ev.buildDest(dst)
	if err != nil {
		ev.tm.Set(src, dst, old)
		return err
	}
	ev.insertDest(i, st)
	ev.resumAll()
	return nil
}

// ReplaceDemands swaps in a whole new demand matrix — one step of a
// temporal sequence — re-propagating only the destinations whose
// columns actually changed and inserting/dropping destinations whose
// columns appeared or drained, then re-summing every link. The
// evaluator takes ownership of m. The update is atomic: routability of
// every changed column is screened against the cached distances (and
// new destinations are fully built) before any state is committed, so a
// rejected step leaves the state untouched. The result is bit-identical
// to a from-scratch evaluation of (graph, m, weights).
func (ev *Evaluator) ReplaceDemands(m *traffic.Matrix) error {
	ev.resummed = 0
	if m.Size() != ev.g.NumNodes() {
		return fmt.Errorf("%w: %d-node matrix for %d-node graph", ErrBadInput, m.Size(), ev.g.NumNodes())
	}
	newDests := m.Destinations()
	if len(newDests) == 0 {
		return fmt.Errorf("%w: empty traffic matrix", ErrBadInput)
	}
	// Phase 1: diff the destination sets and validate every change
	// without mutating anything.
	buf := ev.ws.DemandBuffer(ev.g)
	var changed, removed []int // indices into the current dests
	var added []int            // new destination nodes, increasing
	i, j := 0, 0
	for i < len(ev.dests) || j < len(newDests) {
		switch {
		case j == len(newDests) || (i < len(ev.dests) && ev.dests[i] < newDests[j]):
			removed = append(removed, i)
			i++
		case i == len(ev.dests) || newDests[j] < ev.dests[i]:
			added = append(added, newDests[j])
			j++
		default:
			col := m.ToDestinationInto(ev.dests[i], buf)
			if !equalColumn(col, ev.demands[i]) {
				changed = append(changed, i)
			}
			i++
			j++
		}
	}
	for _, i := range changed {
		col := m.ToDestinationInto(ev.dests[i], buf)
		for s, v := range col {
			if v > 0 && ev.dags[i].Dist[s] == graph.Unreachable {
				return fmt.Errorf("%w: demand at node %d cannot reach destination %d", ErrBadInput, s, ev.dests[i])
			}
		}
	}
	fresh := make([]destState, 0, len(added))
	for _, t := range added {
		st, err := ev.buildDestFrom(m, t)
		if err != nil {
			return err
		}
		fresh = append(fresh, st)
	}
	if len(changed) == 0 && len(removed) == 0 && len(added) == 0 {
		ev.tm = m
		return nil
	}
	// Phase 2: commit — no step below can fail.
	for _, i := range changed {
		m.ToDestinationInto(ev.dests[i], ev.demands[i])
		if err := ev.ws.PropagateDownInto(ev.g, ev.dags[i], ev.demands[i], ev.splits[i], ev.flows[i]); err != nil {
			return unroutable(ev.dests[i], err)
		}
	}
	if len(removed) > 0 || len(fresh) > 0 {
		ev.mergeDests(removed, fresh)
	}
	ev.tm = m
	ev.resumAll()
	return nil
}

// destState bundles one destination's owned evaluation state.
type destState struct {
	dest   int
	demand []float64
	dag    *graph.DAG
	split  []float64
	flow   []float64
}

// buildDest evaluates destination t from the evaluator's own matrix
// into fresh arenas, without touching shared state.
func (ev *Evaluator) buildDest(t int) (destState, error) {
	return ev.buildDestFrom(ev.tm, t)
}

func (ev *Evaluator) buildDestFrom(m *traffic.Matrix, t int) (destState, error) {
	links := ev.g.NumLinks()
	st := destState{
		dest:   t,
		demand: m.ToDestination(t),
		dag:    &graph.DAG{},
		split:  make([]float64, links),
		flow:   make([]float64, links),
	}
	built, err := ev.ws.BuildDAG(ev.g, ev.w, t, dagTol)
	if err != nil {
		return destState{}, err
	}
	st.dag.CopyFrom(built)
	graph.EvenSplitsInto(ev.g, st.dag, st.split)
	if err := ev.ws.PropagateDownInto(ev.g, st.dag, st.demand, st.split, st.flow); err != nil {
		return destState{}, unroutable(t, err)
	}
	return st, nil
}

// insertDest splices a built destination in at index i, keeping the
// destination order sorted.
func (ev *Evaluator) insertDest(i int, st destState) {
	ev.dests = append(ev.dests, 0)
	copy(ev.dests[i+1:], ev.dests[i:])
	ev.dests[i] = st.dest
	ev.demands = append(ev.demands, nil)
	copy(ev.demands[i+1:], ev.demands[i:])
	ev.demands[i] = st.demand
	ev.dags = append(ev.dags, nil)
	copy(ev.dags[i+1:], ev.dags[i:])
	ev.dags[i] = st.dag
	ev.splits = append(ev.splits, nil)
	copy(ev.splits[i+1:], ev.splits[i:])
	ev.splits[i] = st.split
	ev.flows = append(ev.flows, nil)
	copy(ev.flows[i+1:], ev.flows[i:])
	ev.flows[i] = st.flow
}

// removeDest splices destination index i out.
func (ev *Evaluator) removeDest(i int) {
	ev.dests = append(ev.dests[:i], ev.dests[i+1:]...)
	ev.demands = append(ev.demands[:i], ev.demands[i+1:]...)
	ev.dags = append(ev.dags[:i], ev.dags[i+1:]...)
	ev.splits = append(ev.splits[:i], ev.splits[i+1:]...)
	ev.flows = append(ev.flows[:i], ev.flows[i+1:]...)
}

// mergeDests rebuilds the destination-indexed slices in one pass:
// removed indices (sorted) are skipped, fresh destinations (sorted by
// node) are interleaved at their order positions, surviving rows keep
// their arenas.
func (ev *Evaluator) mergeDests(removed []int, fresh []destState) {
	n := len(ev.dests) - len(removed) + len(fresh)
	dests := make([]int, 0, n)
	demands := make([][]float64, 0, n)
	dags := make([]*graph.DAG, 0, n)
	splits := make([][]float64, 0, n)
	flows := make([][]float64, 0, n)
	ri, fi := 0, 0
	take := func(st destState) {
		dests = append(dests, st.dest)
		demands = append(demands, st.demand)
		dags = append(dags, st.dag)
		splits = append(splits, st.split)
		flows = append(flows, st.flow)
	}
	for i, t := range ev.dests {
		if ri < len(removed) && removed[ri] == i {
			ri++
			continue
		}
		for fi < len(fresh) && fresh[fi].dest < t {
			take(fresh[fi])
			fi++
		}
		take(destState{dest: t, demand: ev.demands[i], dag: ev.dags[i], split: ev.splits[i], flow: ev.flows[i]})
	}
	for ; fi < len(fresh); fi++ {
		take(fresh[fi])
	}
	ev.dests, ev.demands, ev.dags, ev.splits, ev.flows = dests, demands, dags, splits, flows
}

// anyOtherPositive reports whether the demand column has a positive
// entry at any node other than src.
func anyOtherPositive(col []float64, src int) bool {
	for s, v := range col {
		if s != src && v > 0 {
			return true
		}
	}
	return false
}

// equalColumn reports whether two demand columns are bitwise equal.
func equalColumn(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// appendAffected appends the indices (into Destinations order,
// increasing and distinct) of the destinations whose shortest-path
// state can change when each link links[k] moves from its current
// weight to w[k]. The screen is exact, not heuristic: for an unlisted
// destination the distances, the DAG, the splits and the propagated
// flow are all bitwise unchanged.
//
// Let e = (u,v) with destination-rooted distances du, dv.
//
//   - Decrease: distances or membership can change only if e reaches
//     the equal-cost band under its new weight, dv + w - du <= eps
//     (including du unreachable, where e may create connectivity).
//     Otherwise no Bellman inequality is violated — the old distance
//     vector, realized by paths that avoid e, remains optimal — and
//     every membership test other than e's reads unchanged inputs while
//     e's slack stays above the band.
//   - Increase: only links on a shortest path (dv + w_old - du <= eps)
//     can change anything; any other link's slack only grows and no
//     shortest path uses it. Those are the DAG's members plus the
//     zero-weight links between equidistant nodes, which the DAG leaves
//     out (dv < du fails) but which may still carry u's only shortest
//     path. A failure is the increase to +Inf, so under positive
//     weights it re-routes exactly the destinations whose DAG holds the
//     link.
//
// If v cannot reach the destination, no path through e ever reaches it
// and the destination is unaffected either way. Each link's test reads
// only the old distances, so for a set of links the union of the
// per-link screens is exact too: a destination none of them admits
// keeps every Bellman inequality and every membership test at once.
func (ev *Evaluator) appendAffected(buf []int, links []int, w []float64) []int {
	start := len(buf)
	for k, e := range links {
		l, old, nw := ev.g.Link(e), ev.w[e], w[k]
		if nw == old {
			continue
		}
		for i, dag := range ev.dags {
			du, dv := dag.Dist[l.From], dag.Dist[l.To]
			if dv == graph.Unreachable {
				continue
			}
			if nw < old {
				if du == graph.Unreachable || dv+nw-du <= dagEps {
					buf = append(buf, i)
				}
			} else {
				if du != graph.Unreachable && dv+old-du <= dagEps {
					buf = append(buf, i)
				}
			}
		}
	}
	if len(links) > 1 {
		slices.Sort(buf[start:])
		buf = buf[:start+len(slices.Compact(buf[start:]))]
	}
	return buf
}

// resplit brings destination i's split and flow rows in line with the
// DAG the last RepairDAG on ev.ws repaired: nothing to do when that
// repair kept every propagation (graph.Workspace.FlowsKept); otherwise
// it re-splits only the nodes whose Out list the repair changed and
// re-propagates in place, adding every link whose flow moved to
// ev.marks.
func (ev *Evaluator) resplit(i int) error {
	if ev.ws.FlowsKept() {
		return nil
	}
	graph.EvenSplitsAt(ev.g, ev.dags[i], ev.ws.OutChanged(), ev.splits[i], ev.flows[i], &ev.marks)
	if err := ev.ws.PropagateDownMarked(ev.g, ev.dags[i], ev.demands[i], ev.splits[i], ev.flows[i], &ev.marks); err != nil {
		return unroutable(ev.dests[i], err)
	}
	return nil
}

// unroutable reports a destination the event's inputs leave unroutable
// (a stranded demand, or a node with traffic but no DAG out-link): the
// client's inputs, not the engine, are at fault.
func unroutable(dst int, err error) error {
	return fmt.Errorf("%w: destination %d: %w", ErrBadInput, dst, err)
}

// resumAll re-sums the aggregate flow of every link over every
// destination in Destinations order — the same deterministic order
// mcf.Flow uses — and re-costs every link: the oracle resumMarked
// matches, and the path of the events that change the destination set
// or many columns at once.
func (ev *Evaluator) resumAll() {
	clear(ev.total)
	for i := range ev.dests {
		for j, x := range ev.flows[i] {
			ev.total[j] += x
		}
	}
	ev.cost = costAll(ev.terms, ev.caps, ev.total)
	ev.marks.Clear()
	ev.resummed = len(ev.total)
}

// resumMarked re-sums only the marked links, each from 0 over every
// destination in Destinations order — the additions resumAll makes for
// that link, so the same bits — and recomputes only their Fortz-Thorup
// terms; every other link's flow is bitwise unchanged in every row.
func (ev *Evaluator) resumMarked() {
	ids := ev.marks.IDs()
	ev.resummed = len(ids)
	if len(ids) == 0 {
		return
	}
	for _, j := range ids {
		ev.total[j] = 0
	}
	for i := range ev.dests {
		row := ev.flows[i]
		for _, j := range ids {
			ev.total[j] += row[j]
		}
	}
	var ft objective.FortzThorup
	for _, j := range ids {
		ev.terms[j] = ft.Cost(j, ev.total[j], ev.caps[j])
	}
	ev.cost = sumTerms(ev.terms)
	ev.marks.Clear()
}

// costAll fills terms with every link's Fortz-Thorup term of flows and
// returns their sum.
func costAll(terms, caps, flows []float64) float64 {
	var ft objective.FortzThorup
	for j, f := range flows {
		terms[j] = ft.Cost(j, f, caps[j])
	}
	return sumTerms(terms)
}

// sumTerms adds per-link Fortz-Thorup terms in link-ID order — the same
// terms in the same order as objective.TotalCost, without that
// function's link-table copy, so the hot paths stay allocation-free.
func sumTerms(terms []float64) float64 {
	var total float64
	for _, t := range terms {
		total += t
	}
	return total
}

// mluOf is objective.MLU without the link-table copy: the same
// divisions and comparisons in the same link-ID order, bit-identical.
func mluOf(caps, flows []float64) float64 {
	var mlu float64
	for e, f := range flows {
		if u := f / caps[e]; u > mlu {
			mlu = u
		}
	}
	return mlu
}

// utilityOf is objective.LogSpareUtility without the link-table copy:
// the same log terms summed in the same link-ID order, bit-identical.
func utilityOf(caps, flows []float64) float64 {
	var total float64
	for e, f := range flows {
		u := f / caps[e]
		if u >= 1 {
			return math.Inf(-1)
		}
		total += math.Log(1 - u)
	}
	return total
}

// Scratch is the private arena one worker needs to score candidates
// against a shared Evaluator with the Try* queries: a workspace, a
// trial weight vector, a DAG to repair, demand and ratio buffers, the
// trial aggregate with its per-link terms and link marks, and
// per-affected-destination flow rows. Scratches are not safe for
// concurrent use; each concurrent reader draws its own.
type Scratch struct {
	ws       *graph.Workspace
	w        []float64
	nw       []float64 // the new weights of an engine what-if's links
	old      []float64 // the current weights of a what-if's links
	dag      graph.DAG // one affected destination's DAG, copied and repaired
	demand   []float64
	ratio    []float64
	total    []float64   // the trial aggregate flow
	terms    []float64   // the trial per-link Fortz-Thorup terms
	marks    graph.Marks // links whose flow the trial moved in some row
	flows    [][]float64 // flows[k]: the trial flow row of destination index rows[k]
	rows     []int
	affected []int
	moved    int // node distances the last weight what-if moved
	resummed int // aggregate links the last what-if re-summed
}

// NewScratch returns a scratch sized for the evaluator's topology.
func (ev *Evaluator) NewScratch() *Scratch {
	s := &Scratch{ws: graph.NewWorkspace(ev.g)}
	s.fit(ev)
	return s
}

// fit re-sizes the scratch for the evaluator's shape (a scratch may be
// handed to evaluators of different topologies) and empties its marks.
func (s *Scratch) fit(ev *Evaluator) {
	m := ev.g.NumLinks()
	if cap(s.w) < m {
		s.w = make([]float64, m)
		s.ratio = make([]float64, m)
		s.total = make([]float64, m)
		s.terms = make([]float64, m)
	}
	s.w, s.ratio, s.total, s.terms = s.w[:m], s.ratio[:m], s.total[:m], s.terms[:m]
	s.marks.Reset(m)
	n := ev.g.NumNodes()
	if cap(s.demand) < n {
		s.demand = make([]float64, n)
		s.rows = make([]int, 0, n)
		s.dag.Reserve(ev.g)
	}
	s.demand = s.demand[:n]
}

// flowRow returns the k-th per-destination flow row, growing the row
// set on demand and each row to the evaluator's link count.
func (s *Scratch) flowRow(k, links int) []float64 {
	for len(s.flows) <= k {
		s.flows = append(s.flows, nil)
	}
	if cap(s.flows[k]) < links {
		s.flows[k] = make([]float64, links)
	}
	s.flows[k] = s.flows[k][:links]
	return s.flows[k]
}

// TryWeight returns the Fortz-Thorup cost the evaluator would report
// after SetWeight(link, w), without mutating any shared state: affected
// destinations are re-routed into the scratch, the links whose flow
// that moves are re-summed in the same destination order and re-costed,
// and every other link's total and term is read from the shared state —
// bit-identical to applying the change. Multiple goroutines may call
// TryWeight on one Evaluator concurrently as long as each brings its
// own Scratch and nothing mutates the evaluator.
func (ev *Evaluator) TryWeight(s *Scratch, link int, w float64) (float64, error) {
	changed, err := ev.tryWeightsTotal(s, []int{link}, []float64{w})
	if err != nil {
		return 0, err
	}
	if !changed {
		return ev.cost, nil
	}
	return ev.trialCost(s), nil
}

// tryWeights is the Metrics the evaluator would report after
// setWeights(links, w), computed into s without mutating shared state.
func (ev *Evaluator) tryWeights(s *Scratch, links []int, w []float64) (Metrics, error) {
	changed, err := ev.tryWeightsTotal(s, links, w)
	if err != nil {
		return Metrics{}, err
	}
	if !changed {
		return ev.Metrics(), nil
	}
	return ev.trialMetrics(s), nil
}

// tryWeightsTotal is the shared core of the weight what-ifs: it fills
// s.total with the aggregate flow the evaluator would hold after
// setWeights(links, w), s.marks with the links whose total it
// re-summed, s.affected with the destinations that event re-routes and
// s.moved with the node distances it moves. Each affected destination's
// DAG is copied into the scratch and repaired there; unless the repair
// kept every propagation, its flow row is copied too and taken through
// setWeights' remaining steps: re-split of the nodes whose Out list
// changed, in-place propagation. Its split row is copied only when some
// Out list changed; otherwise the shared row is read. changed is false
// when the hypothetical state is the current one (no affected
// destination) and s.total was not filled.
func (ev *Evaluator) tryWeightsTotal(s *Scratch, links []int, w []float64) (changed bool, err error) {
	s.moved, s.resummed = 0, 0
	if err := ev.checkEvent(links, w); err != nil {
		return false, err
	}
	s.fit(ev)
	s.affected = ev.appendAffected(s.affected[:0], links, w)
	if len(s.affected) == 0 {
		return false, nil
	}
	copy(s.w, ev.w)
	s.old = s.old[:0]
	for k, l := range links {
		s.old = append(s.old, ev.w[l])
		s.w[l] = w[k]
	}
	s.rows = s.rows[:0]
	for _, i := range s.affected {
		s.dag.CopyFrom(ev.dags[i])
		moved, err := s.ws.RepairDAG(ev.g, s.w, &s.dag, links, s.old)
		if err != nil {
			return false, err
		}
		s.moved += moved
		if s.ws.FlowsKept() {
			continue // the shared rows stay valid
		}
		flow := s.flowRow(len(s.rows), ev.g.NumLinks())
		s.rows = append(s.rows, i)
		copy(flow, ev.flows[i])
		ratio := ev.splits[i] // read-only while no Out list changed
		if rewired := s.ws.OutChanged(); len(rewired) > 0 {
			ratio = s.ratio
			copy(ratio, ev.splits[i])
			graph.EvenSplitsAt(ev.g, &s.dag, rewired, ratio, flow, &s.marks)
		}
		if err := s.ws.PropagateDownMarked(ev.g, &s.dag, ev.demands[i], ratio, flow, &s.marks); err != nil {
			return false, unroutable(ev.dests[i], err)
		}
	}
	ev.trialResum(s, s.rows)
	return true, nil
}

// trialResum fills s.total with the shared aggregate, then re-sums each
// link in s.marks from 0 over every destination in order, reading the
// trial row s.flows[k] for destination index at[k] (at increasing) and
// the shared row otherwise — resumMarked's additions on the trial rows.
func (ev *Evaluator) trialResum(s *Scratch, at []int) {
	ids := s.marks.IDs()
	s.resummed = len(ids)
	copy(s.total, ev.total)
	for _, j := range ids {
		s.total[j] = 0
	}
	next := 0
	for i := range ev.dests {
		row := ev.flows[i]
		if next < len(at) && at[next] == i {
			row = s.flows[next]
			next++
		}
		for _, j := range ids {
			s.total[j] += row[j]
		}
	}
}

// trialCost is the Fortz-Thorup cost of s.total after trialResum: the
// shared per-link terms with the marked links' terms recomputed, summed
// in link order.
func (ev *Evaluator) trialCost(s *Scratch) float64 {
	copy(s.terms, ev.terms)
	var ft objective.FortzThorup
	for _, j := range s.marks.IDs() {
		s.terms[j] = ft.Cost(j, s.total[j], ev.caps[j])
	}
	return sumTerms(s.terms)
}

// trialMetrics is the Metrics of s.total after trialResum.
func (ev *Evaluator) trialMetrics(s *Scratch) Metrics {
	return Metrics{
		Cost:    ev.trialCost(s),
		MLU:     mluOf(ev.caps, s.total),
		Utility: utilityOf(ev.caps, s.total),
	}
}

// TryDemand returns the Metrics the evaluator would report after
// SetDemand(src, dst, v), without mutating any shared state: only the
// affected destination's flow is re-propagated, into a copy of its row
// in the scratch, and only the links whose flow that moves are re-summed
// in the destination order the committed update would use and
// re-costed. A what-if that inserts or drops a destination re-sums and
// re-costs every link, as the committed update does. Either way the
// answer is bit-identical to applying the change. Concurrent TryDemand
// calls are safe under the same contract as TryWeight.
func (ev *Evaluator) TryDemand(s *Scratch, src, dst int, v float64) (Metrics, error) {
	s.resummed = 0
	n := ev.g.NumNodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return Metrics{}, fmt.Errorf("%w: demand %d->%d out of range for %d nodes", ErrBadInput, src, dst, n)
	}
	if src == dst {
		return Metrics{}, fmt.Errorf("%w: self-demand %d->%d", ErrBadInput, src, dst)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return Metrics{}, fmt.Errorf("%w: demand %d->%d volume %v", ErrBadInput, src, dst, v)
	}
	i := sort.SearchInts(ev.dests, dst)
	found := i < len(ev.dests) && ev.dests[i] == dst
	if (found && ev.demands[i][src] == v) || (!found && v == 0) {
		return ev.Metrics(), nil
	}
	s.fit(ev)
	flow := s.flowRow(0, ev.g.NumLinks())
	skip := -1 // destination index whose row drops from the sum
	insertAt := -1
	if found {
		if v == 0 && !anyOtherPositive(ev.demands[i], src) {
			if len(ev.dests) == 1 {
				return Metrics{}, fmt.Errorf("%w: removing demand %d->%d would leave no positive demand", ErrBadInput, src, dst)
			}
			skip = i
		} else {
			copy(s.demand, ev.demands[i])
			s.demand[src] = v
			copy(flow, ev.flows[i])
			if err := s.ws.PropagateDownMarked(ev.g, ev.dags[i], s.demand, ev.splits[i], flow, &s.marks); err != nil {
				return Metrics{}, fmt.Errorf("delta: destination %d: %w", dst, err)
			}
			ev.trialResum(s, []int{i})
			return ev.trialMetrics(s), nil
		}
	} else {
		clear(s.demand)
		s.demand[src] = v
		built, err := s.ws.BuildDAG(ev.g, ev.w, dst, dagTol)
		if err != nil {
			return Metrics{}, err
		}
		graph.EvenSplitsInto(ev.g, built, s.ratio)
		if err := s.ws.PropagateDownInto(ev.g, built, s.demand, s.ratio, flow); err != nil {
			return Metrics{}, unroutable(dst, err)
		}
		insertAt = i
	}
	clear(s.total)
	addRow := func(row []float64) {
		for j, x := range row {
			s.total[j] += x
		}
	}
	for k := range ev.dests {
		if k == insertAt {
			addRow(flow)
		}
		if k != skip {
			addRow(ev.flows[k])
		}
	}
	if insertAt == len(ev.dests) {
		addRow(flow)
	}
	s.resummed = len(s.total)
	return Metrics{
		Cost:    costAll(s.terms, ev.caps, s.total),
		MLU:     mluOf(ev.caps, s.total),
		Utility: utilityOf(ev.caps, s.total),
	}, nil
}

// Equal compares two evaluators' complete state bitwise — weights,
// per-destination distances, DAG adjacency, split ratios, flows,
// aggregate flow, per-link cost terms and cost — returning a
// descriptive error on the first mismatch. It is the oracle of the
// incremental-vs-full parity checks.
func (ev *Evaluator) Equal(o *Evaluator) error {
	if len(ev.w) != len(o.w) || len(ev.dests) != len(o.dests) {
		return fmt.Errorf("delta: shape mismatch: %d/%d links, %d/%d destinations",
			len(ev.w), len(o.w), len(ev.dests), len(o.dests))
	}
	for e := range ev.w {
		if ev.w[e] != o.w[e] {
			return fmt.Errorf("delta: weight of link %d: %v vs %v", e, ev.w[e], o.w[e])
		}
	}
	for i, t := range ev.dests {
		if t != o.dests[i] {
			return fmt.Errorf("delta: destination %d: %d vs %d", i, t, o.dests[i])
		}
		a, b := ev.dags[i], o.dags[i]
		for u := range a.Dist {
			if a.Dist[u] != b.Dist[u] {
				return fmt.Errorf("delta: destination %d: dist[%d] %v vs %v", t, u, a.Dist[u], b.Dist[u])
			}
		}
		for u := range a.Out {
			if len(a.Out[u]) != len(b.Out[u]) {
				return fmt.Errorf("delta: destination %d: node %d has %d vs %d DAG out-links",
					t, u, len(a.Out[u]), len(b.Out[u]))
			}
			for k := range a.Out[u] {
				if a.Out[u][k] != b.Out[u][k] {
					return fmt.Errorf("delta: destination %d: node %d out-link %d: %d vs %d",
						t, u, k, a.Out[u][k], b.Out[u][k])
				}
			}
		}
		for e := range ev.splits[i] {
			if ev.splits[i][e] != o.splits[i][e] {
				return fmt.Errorf("delta: destination %d: split[%d] %v vs %v",
					t, e, ev.splits[i][e], o.splits[i][e])
			}
			if ev.flows[i][e] != o.flows[i][e] {
				return fmt.Errorf("delta: destination %d: flow[%d] %v vs %v",
					t, e, ev.flows[i][e], o.flows[i][e])
			}
		}
	}
	for e := range ev.total {
		if ev.total[e] != o.total[e] {
			return fmt.Errorf("delta: total flow[%d]: %v vs %v", e, ev.total[e], o.total[e])
		}
		if ev.terms[e] != o.terms[e] {
			return fmt.Errorf("delta: cost term[%d]: %v vs %v", e, ev.terms[e], o.terms[e])
		}
	}
	if ev.cost != o.cost {
		return fmt.Errorf("delta: cost %v vs %v", ev.cost, o.cost)
	}
	return nil
}
