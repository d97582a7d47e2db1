package delta

import (
	"errors"
	"fmt"
	"math"
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
// flow and its Fortz-Thorup cost — and updates it incrementally:
// SetWeight re-routes only the destinations the change can affect,
// SetDemand/ReplaceDemands re-propagate only the destinations whose
// demand columns changed, and Rebind re-anchors the whole state onto a
// failure-variant topology while reusing every arena. The rest of the
// state is kept bit-for-bit.
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
	tol   float64   // equal-cost tolerance handed to BuildDAG
	eps   float64   // the effective slack BuildDAG applies for tol
	caps  []float64 // per-link capacities, cached to keep cost sums alloc-free
	w     []float64
	dests []int

	demands [][]float64  // demands[i][s]: volume at s toward dests[i]
	dags    []*graph.DAG // owned per-destination arenas, refilled in place
	splits  [][]float64  // per-destination even ECMP ratios
	flows   [][]float64  // per-destination per-link flow
	total   []float64    // aggregate flow, summed in destination order
	cost    float64      // Fortz-Thorup cost of total

	ws       *graph.Workspace
	affected []int // scratch for SetWeight's affected-destination screen
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

// NewEvaluator fully evaluates the weight vector and returns the
// resulting state. tol is the equal-cost tolerance of the shortest-path
// DAGs (0 = exact, the OSPF router's configuration). Every positive
// demand must be routable under the weights; an unreachable demand is
// an error, mirroring the forwarding engine.
func NewEvaluator(g *graph.Graph, tm *traffic.Matrix, weights []float64, tol float64) (*Evaluator, error) {
	if tol < 0 {
		return nil, fmt.Errorf("%w: negative tolerance %v", ErrBadInput, tol)
	}
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
		tol:   tol,
		eps:   graph.EffectiveDAGTol(tol),
		dests: dests,
		caps:  g.Capacities(),
		w:     make([]float64, g.NumLinks()),
		ws:    graph.NewWorkspace(g),
		total: make([]float64, g.NumLinks()),
	}
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
// weight/capacity/flow vectors, per-destination DAGs, splits and flows
// — the number /statz reports as warm-state memory. The workspace's
// internal scratch (a few per-node vectors) is not counted.
func (ev *Evaluator) Footprint() int64 {
	const word = 8
	b := int64(cap(ev.w)+cap(ev.caps)+cap(ev.total)) * word
	b += int64(cap(ev.affected)+cap(ev.dests)) * word
	for i := range ev.dests {
		b += int64(cap(ev.demands[i])+cap(ev.splits[i])+cap(ev.flows[i])) * word
		d := ev.dags[i]
		b += int64(cap(d.Dist)) * word
		for u := range d.Out {
			b += int64(cap(d.Out[u])) * word
		}
		for u := range d.In {
			b += int64(cap(d.In[u])) * word
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
		if err := ev.evalDestInto(ev.ws, ev.w, i, ev.dags[i], ev.splits[i], ev.flows[i]); err != nil {
			return err
		}
	}
	ev.recomputeCost()
	return nil
}

// Rebind re-anchors the evaluator onto a different topology with the
// same node set — a failure variant of the intact graph, or the intact
// graph restored — and fully re-evaluates under the given weights (in
// the new graph's link ID space). Demand state carries over untouched:
// demand columns are node-indexed and every per-destination arena is
// resized in place, so after the first flap a warm engine survives
// LinkDown/LinkUp without reallocating its state. If re-evaluation
// fails (a demand the new topology cannot route), the state is left
// inconsistent and the caller must Rebind back to a routable topology.
func (ev *Evaluator) Rebind(g *graph.Graph, weights []float64) error {
	if g.NumNodes() != ev.g.NumNodes() {
		return fmt.Errorf("%w: rebind changes node count %d to %d", ErrBadInput, ev.g.NumNodes(), g.NumNodes())
	}
	if g.NumLinks() == 0 {
		return fmt.Errorf("%w: graph has no links", ErrBadInput)
	}
	if len(weights) != g.NumLinks() {
		return fmt.Errorf("%w: got %d weights for %d links", ErrBadInput, len(weights), g.NumLinks())
	}
	ev.g = g
	m := g.NumLinks()
	ev.caps = growFloats(ev.caps, m)
	for e := 0; e < m; e++ {
		ev.caps[e] = g.Link(e).Cap
	}
	ev.w = growFloats(ev.w, m)
	ev.total = growFloats(ev.total, m)
	for i := range ev.dests {
		ev.splits[i] = growFloats(ev.splits[i], m)
		ev.flows[i] = growFloats(ev.flows[i], m)
	}
	ev.ws.Reset(g)
	return ev.Reevaluate(weights)
}

// SetWeight applies one single-link weight change incrementally:
// destinations the change cannot affect (see appendAffected) keep their
// DAGs, splits and flows untouched; affected ones are re-routed in
// place. The aggregate flow is then re-summed over every destination in
// order, so the resulting state — flows, total and cost — is
// bit-identical to Reevaluate on the modified vector. Allocation-free
// in steady state.
func (ev *Evaluator) SetWeight(link int, w float64) error {
	if link < 0 || link >= ev.g.NumLinks() {
		return fmt.Errorf("%w: link %d out of range", ErrBadInput, link)
	}
	if math.IsNaN(w) || w < 0 {
		return fmt.Errorf("%w: weight %v for link %d", ErrBadInput, w, link)
	}
	if w == ev.w[link] {
		return nil
	}
	ev.affected = ev.appendAffected(ev.affected[:0], link, w)
	ev.w[link] = w
	for _, i := range ev.affected {
		if err := ev.evalDestInto(ev.ws, ev.w, i, ev.dags[i], ev.splits[i], ev.flows[i]); err != nil {
			return err
		}
	}
	if len(ev.affected) > 0 {
		ev.recomputeCost()
	}
	return nil
}

// SetDemand updates one demand matrix entry and re-propagates only the
// affected destination's flow — shortest-path DAGs and split ratios
// never change under a demand event. A destination whose column gains
// its first positive entry is inserted (one-time arena allocation); one
// whose column drains to zero is dropped, so the destination set always
// matches what a from-scratch evaluation of the matrix would build and
// the resulting state is bit-identical to it. Rejected events (bad
// entry, unroutable demand, draining the last positive entry) leave the
// state untouched.
func (ev *Evaluator) SetDemand(src, dst int, v float64) error {
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
			ev.recomputeCost()
			return nil
		}
		if v > 0 && ev.dags[i].Dist[src] == graph.Unreachable {
			ev.tm.Set(src, dst, old)
			return fmt.Errorf("%w: demand at node %d cannot reach destination %d", ErrBadInput, src, dst)
		}
		ev.demands[i][src] = v
		// Cannot fail: reachability is pre-screened above and the DAG,
		// splits and shapes are unchanged from a valid state.
		if err := ev.ws.PropagateDownInto(ev.g, ev.dags[i], ev.demands[i], ev.splits[i], ev.flows[i]); err != nil {
			return fmt.Errorf("delta: destination %d: %w", dst, err)
		}
		ev.recomputeCost()
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
	ev.recomputeCost()
	return nil
}

// ReplaceDemands swaps in a whole new demand matrix — one step of a
// temporal sequence — re-propagating only the destinations whose
// columns actually changed and inserting/dropping destinations whose
// columns appeared or drained. The evaluator takes ownership of m. The
// update is atomic: routability of every changed column is screened
// against the cached distances (and new destinations are fully built)
// before any state is committed, so a rejected step leaves the state
// untouched. The result is bit-identical to a from-scratch evaluation
// of (graph, m, weights).
func (ev *Evaluator) ReplaceDemands(m *traffic.Matrix) error {
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
			return fmt.Errorf("delta: destination %d: %w", ev.dests[i], err)
		}
	}
	if len(removed) > 0 || len(fresh) > 0 {
		ev.mergeDests(removed, fresh)
	}
	ev.tm = m
	ev.recomputeCost()
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
	built, err := ev.ws.BuildDAG(ev.g, ev.w, t, ev.tol)
	if err != nil {
		return destState{}, err
	}
	st.dag.CopyFrom(built)
	graph.EvenSplitsInto(ev.g, st.dag, st.split)
	if err := ev.ws.PropagateDownInto(ev.g, st.dag, st.demand, st.split, st.flow); err != nil {
		return destState{}, fmt.Errorf("delta: destination %d: %w", t, err)
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

// appendAffected appends the indices (into Destinations order) of the
// destinations whose shortest-path state can change when link e's
// weight moves from its current value to w. The screen is exact, not
// heuristic: for an unlisted destination the distances, the DAG, the
// splits and the propagated flow are all bitwise unchanged.
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
//   - Increase: only current members of the equal-cost band
//     (dv < du and dv + w_old - du <= eps) can change; a non-member's
//     slack only grows and no shortest path uses it.
//
// If v cannot reach the destination, no path through e ever reaches it
// and the destination is unaffected either way.
func (ev *Evaluator) appendAffected(buf []int, e int, w float64) []int {
	l := ev.g.Link(e)
	old := ev.w[e]
	for i, dag := range ev.dags {
		du, dv := dag.Dist[l.From], dag.Dist[l.To]
		if dv == graph.Unreachable {
			continue
		}
		if w < old {
			if du == graph.Unreachable || dv+w-du <= ev.eps {
				buf = append(buf, i)
			}
		} else {
			if du != graph.Unreachable && dv < du && dv+old-du <= ev.eps {
				buf = append(buf, i)
			}
		}
	}
	return buf
}

// evalDestInto routes destination i under w: shortest-path DAG, even
// ECMP ratios, and the propagated per-link flow, written into the given
// owned storage.
func (ev *Evaluator) evalDestInto(ws *graph.Workspace, w []float64, i int, dag *graph.DAG, ratio, flow []float64) error {
	built, err := ws.BuildDAG(ev.g, w, ev.dests[i], ev.tol)
	if err != nil {
		return err
	}
	dag.CopyFrom(built)
	graph.EvenSplitsInto(ev.g, dag, ratio)
	if err := ws.PropagateDownInto(ev.g, dag, ev.demands[i], ratio, flow); err != nil {
		return fmt.Errorf("delta: destination %d: %w", ev.dests[i], err)
	}
	return nil
}

// recomputeCost re-sums the aggregate flow over every destination in
// Destinations order — the same deterministic order mcf.Flow uses — and
// evaluates the Fortz-Thorup cost.
func (ev *Evaluator) recomputeCost() {
	for j := range ev.total {
		ev.total[j] = 0
	}
	for i := range ev.dests {
		for j, x := range ev.flows[i] {
			ev.total[j] += x
		}
	}
	ev.cost = fortzTotal(ev.caps, ev.total)
}

// fortzTotal sums the Fortz-Thorup cost over the links in ID order —
// the same terms in the same order as objective.TotalCost, without that
// function's link-table copy, so the hot paths stay allocation-free.
func fortzTotal(caps, flows []float64) float64 {
	var ft objective.FortzThorup
	var total float64
	for e, f := range flows {
		total += ft.Cost(e, f, caps[e])
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

// growFloats returns a slice of length n, reusing s's storage when it
// is large enough.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Scratch is the private arena one worker needs to score candidates
// against a shared Evaluator with the Try* queries: a workspace, a
// trial weight vector, demand/ratio/total buffers and
// per-affected-destination flow rows. Scratches are not safe for
// concurrent use; each concurrent reader draws its own.
type Scratch struct {
	ws       *graph.Workspace
	w        []float64
	demand   []float64
	ratio    []float64
	total    []float64
	flows    [][]float64
	affected []int
}

// NewScratch returns a scratch sized for the evaluator's topology.
func (ev *Evaluator) NewScratch() *Scratch {
	return &Scratch{
		ws:     graph.NewWorkspace(ev.g),
		w:      make([]float64, ev.g.NumLinks()),
		demand: make([]float64, ev.g.NumNodes()),
		ratio:  make([]float64, ev.g.NumLinks()),
		total:  make([]float64, ev.g.NumLinks()),
	}
}

// fit re-sizes the scratch for the evaluator's shape (scratches may be
// pooled across the intact and failure-variant evaluators, whose link
// counts differ).
func (s *Scratch) fit(ev *Evaluator) {
	m := ev.g.NumLinks()
	if cap(s.w) < m {
		s.w = make([]float64, m)
		s.ratio = make([]float64, m)
		s.total = make([]float64, m)
	}
	s.w, s.ratio, s.total = s.w[:m], s.ratio[:m], s.total[:m]
	n := ev.g.NumNodes()
	if cap(s.demand) < n {
		s.demand = make([]float64, n)
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
// destinations are re-routed into the scratch, unaffected ones read
// from the shared state, and the aggregate is re-summed in the same
// destination order — bit-identical to applying the change. Multiple
// goroutines may call TryWeight on one Evaluator concurrently as long
// as each brings its own Scratch and nothing mutates the evaluator.
func (ev *Evaluator) TryWeight(s *Scratch, link int, w float64) (float64, error) {
	changed, err := ev.tryWeightTotal(s, link, w)
	if err != nil {
		return 0, err
	}
	if !changed {
		return ev.cost, nil
	}
	return fortzTotal(ev.caps, s.total), nil
}

// TryWeightMetrics is TryWeight extended to the full metric read-out:
// the Metrics the evaluator would report after SetWeight(link, w),
// bit-identical to applying the change, without mutating shared state.
func (ev *Evaluator) TryWeightMetrics(s *Scratch, link int, w float64) (Metrics, error) {
	changed, err := ev.tryWeightTotal(s, link, w)
	if err != nil {
		return Metrics{}, err
	}
	if !changed {
		return ev.Metrics(), nil
	}
	return Metrics{
		Cost:    fortzTotal(ev.caps, s.total),
		MLU:     mluOf(ev.caps, s.total),
		Utility: utilityOf(ev.caps, s.total),
	}, nil
}

// tryWeightTotal is the shared core of the weight what-ifs: it fills
// s.total with the aggregate flow the evaluator would hold after
// SetWeight(link, w). changed is false when the hypothetical state is
// the current one (same weight, or no affected destination) and s.total
// was not filled.
func (ev *Evaluator) tryWeightTotal(s *Scratch, link int, w float64) (changed bool, err error) {
	if link < 0 || link >= ev.g.NumLinks() {
		return false, fmt.Errorf("%w: link %d out of range", ErrBadInput, link)
	}
	if math.IsNaN(w) || w < 0 {
		return false, fmt.Errorf("%w: weight %v for link %d", ErrBadInput, w, link)
	}
	if w == ev.w[link] {
		return false, nil
	}
	s.fit(ev)
	s.affected = ev.appendAffected(s.affected[:0], link, w)
	if len(s.affected) == 0 {
		return false, nil
	}
	copy(s.w, ev.w)
	s.w[link] = w
	for k, i := range s.affected {
		flow := s.flowRow(k, ev.g.NumLinks())
		built, err := s.ws.BuildDAG(ev.g, s.w, ev.dests[i], ev.tol)
		if err != nil {
			return false, err
		}
		graph.EvenSplitsInto(ev.g, built, s.ratio)
		if err := s.ws.PropagateDownInto(ev.g, built, ev.demands[i], s.ratio, flow); err != nil {
			return false, fmt.Errorf("delta: destination %d: %w", ev.dests[i], err)
		}
	}
	for j := range s.total {
		s.total[j] = 0
	}
	next := 0
	for i := range ev.dests {
		row := ev.flows[i]
		if next < len(s.affected) && s.affected[next] == i {
			row = s.flows[next]
			next++
		}
		for j, x := range row {
			s.total[j] += x
		}
	}
	return true, nil
}

// TryDemand returns the Metrics the evaluator would report after
// SetDemand(src, dst, v), without mutating any shared state: only the
// affected destination's flow is re-propagated (into the scratch), the
// rest is read from shared state, and the aggregate is re-summed in the
// destination order the committed update would use — bit-identical to
// applying the change. Concurrent TryDemand calls are safe under the
// same contract as TryWeight.
func (ev *Evaluator) TryDemand(s *Scratch, src, dst int, v float64) (Metrics, error) {
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
	sub := -1  // destination index whose row is replaced by flow
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
			if err := s.ws.PropagateDownInto(ev.g, ev.dags[i], s.demand, ev.splits[i], flow); err != nil {
				return Metrics{}, fmt.Errorf("delta: destination %d: %w", dst, err)
			}
			sub = i
		}
	} else {
		for j := range s.demand {
			s.demand[j] = 0
		}
		s.demand[src] = v
		built, err := s.ws.BuildDAG(ev.g, ev.w, dst, ev.tol)
		if err != nil {
			return Metrics{}, err
		}
		graph.EvenSplitsInto(ev.g, built, s.ratio)
		if err := s.ws.PropagateDownInto(ev.g, built, s.demand, s.ratio, flow); err != nil {
			return Metrics{}, fmt.Errorf("delta: destination %d: %w", dst, err)
		}
		insertAt = i
	}
	for j := range s.total {
		s.total[j] = 0
	}
	addRow := func(row []float64) {
		for j, x := range row {
			s.total[j] += x
		}
	}
	for k := range ev.dests {
		if k == insertAt {
			addRow(flow)
		}
		switch k {
		case skip:
		case sub:
			addRow(flow)
		default:
			addRow(ev.flows[k])
		}
	}
	if insertAt == len(ev.dests) {
		addRow(flow)
	}
	return Metrics{
		Cost:    fortzTotal(ev.caps, s.total),
		MLU:     mluOf(ev.caps, s.total),
		Utility: utilityOf(ev.caps, s.total),
	}, nil
}

// Equal compares two evaluators' complete state bitwise — weights,
// per-destination distances, DAG adjacency, split ratios, flows,
// aggregate flow and cost — returning a descriptive error on the first
// mismatch. It is the oracle of the incremental-vs-full parity checks.
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
	}
	if ev.cost != o.cost {
		return fmt.Errorf("delta: cost %v vs %v", ev.cost, o.cost)
	}
	return nil
}
