package mcf

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/traffic"
)

// workspaces recycles per-worker graph scratch across passes; every
// parallel destination worker draws its own arena, so no shortest-path
// or propagation state is ever shared or reallocated in steady state.
var workspaces graph.WorkspacePool

// passInput is what one pass's per-commodity fill reads.
type passInput struct {
	g  *graph.Graph
	tm *traffic.Matrix
	// fill overwrites row i of f's table, on the private workspace ws.
	fill func(f *Flow, ws *graph.Workspace, i int) error
	// vec is an all-or-nothing pass's link weights, or a propagation's
	// second weights, nil when it reads split ratios instead.
	vec    []float64
	dags   map[int]*graph.DAG
	splits map[int][]float64
}

// prepare readies f to be overwritten as a flow of tm on g. It applies
// CheckReuse's rules, returning its errors, and reads the table from the
// map, so the pass writes each commodity where PerDest points. It walks
// the nodes once and looks each destination up once.
func (f *Flow) prepare(g *graph.Graph, tm *traffic.Matrix) error {
	if f.readRows(g, tm) {
		return nil
	}
	if err := f.CheckReuse(g, tm); err != nil {
		return err
	}
	// The map names exactly tm's destinations, but the table is not
	// built yet or lists others: a new flow, or one built by hand or
	// whose keys were edited.
	f.Rows()
	return nil
}

// readRows reads f's table from the map and reports whether it then
// holds a NumLinks-long row for exactly tm's destinations, listed in
// the table's order, beside a NumLinks-long Total.
func (f *Flow) readRows(g *graph.Graph, tm *traffic.Matrix) bool {
	m := g.NumLinks()
	if len(f.Total) != m || len(f.PerDest) != len(f.dests) || f.tab == nil || len(f.tab.rows) != len(f.dests) {
		return false
	}
	i := 0
	for t := range tm.Size() {
		if !tm.IsDestination(t) {
			continue
		}
		if i == len(f.dests) || f.dests[i] != t {
			return false
		}
		ft, ok := f.PerDest[t]
		if !ok || len(ft) != m {
			return false
		}
		f.tab.rows[i] = ft
		i++
	}
	return i == len(f.dests)
}

// fan runs in.fill for every commodity of f, whose table prepare read,
// on the calling goroutine and the extra workers par.Do grants, then
// rebuilds Total from the table in destination order. Each fill writes
// only its own row (and kept order), so the result is bit-identical to
// the sequential loop for any worker count. Of failed commodities, the
// first in destination order is reported, whatever the scheduling.
func (f *Flow) fan(in passInput) error {
	tab := f.tab
	if tab.run == nil {
		tab.run = func(i int) {
			ws := workspaces.Get(tab.in.g)
			tab.errs[i] = tab.in.fill(f, ws, i)
			workspaces.Put(ws)
		}
	}
	if len(tab.errs) != len(tab.rows) {
		tab.errs = make([]error, len(tab.rows))
	}
	tab.in = in
	par.Do(len(tab.rows), tab.run)
	tab.in = passInput{}
	for _, err := range tab.errs {
		if err != nil {
			return err
		}
	}
	f.sumRows()
	return nil
}

// Propagate overwrites f with the traffic distribution of the paper's
// Algorithm 3: each destination t's demand in tm pushed down dags[t],
// every node splitting its traffic over the DAG's out-links by the
// ratios splits[t], or, with v non-nil, by the exponential splits of
// dags[t] under the second weights v (Eq. 22), which must then be
// NumLinks long. f must fit tm as a reused flow does (CheckReuse's rules
// and errors), and dags must hold a DAG for each of tm's destinations.
// The destinations fan out like AllOrNothingInto's, so the result is the
// sequential loop's bit for bit, and a pass into a reused flow allocates
// nothing.
func (f *Flow) Propagate(g *graph.Graph, tm *traffic.Matrix, dags map[int]*graph.DAG, splits map[int][]float64, v []float64) error {
	if err := f.prepare(g, tm); err != nil {
		return err
	}
	for _, t := range f.dests {
		if _, ok := dags[t]; !ok {
			return inputError(fmt.Sprintf("mcf: no shortest-path DAG for destination %d", t))
		}
	}
	if v != nil && len(v) != g.NumLinks() {
		return inputError(fmt.Sprintf("mcf: got %d second weights for %d links", len(v), g.NumLinks()))
	}
	return f.fan(passInput{g: g, tm: tm, fill: propagateFill, vec: v, dags: dags, splits: splits})
}

// propagateFill is Propagate's fill: row i's destination's demand
// pushed down its DAG.
func propagateFill(f *Flow, ws *graph.Workspace, i int) error {
	in, t := &f.tab.in, f.dests[i]
	d := in.dags[t]
	ratio := in.splits[t]
	if in.vec != nil {
		ratio, _ = ws.ExponentialSplits(in.g, d, in.vec)
	}
	demand := in.tm.ToDestinationInto(t, ws.DemandBuffer(in.g))
	return ws.PropagateDownInto(in.g, d, demand, ratio, f.tab.rows[i])
}
