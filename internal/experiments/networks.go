package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"

	spef "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/objective"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Table3Result reproduces paper TABLE III: the evaluation networks.
type Table3Result struct {
	Rows []Table3Row
}

// Table3Row is one network inventory line.
type Table3Row struct {
	ID       string
	Topology string
	Nodes    int
	Links    int
}

// RunTable3 regenerates TABLE III from the public topology registry
// (the evaluation networks, excluding the worked examples the registry
// also carries).
func RunTable3(_ context.Context, _ Options) (*Table3Result, error) {
	infos, err := spef.RegisteredTopologies()
	if err != nil {
		return nil, err
	}
	res := &Table3Result{}
	for _, n := range infos {
		if n.Class == "Example" {
			continue
		}
		res.Rows = append(res.Rows, Table3Row{
			ID:       n.ID,
			Topology: n.Class,
			Nodes:    n.Nodes,
			Links:    n.Links,
		})
	}
	return res, nil
}

// Format prints the network inventory.
func (r *Table3Result) Format(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Net. ID\tTopology\tNode #\tLink #")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\n", row.ID, row.Topology, row.Nodes, row.Links)
	}
	tw.Flush()
}

// Fig9Result reproduces paper Fig. 9: sorted link utilizations under
// OSPF and SPEF for Abilene (network load 0.17) and Cernet2 (0.21).
type Fig9Result struct {
	// Panels maps "Abilene"/"Cernet2" to the OSPF and SPEF curves
	// (x = link rank, y = utilization, decreasing).
	Panels map[string][]Series
}

// RunFig9 regenerates Fig. 9.
func RunFig9(ctx context.Context, opts Options) (*Fig9Result, error) {
	res := &Fig9Result{Panels: make(map[string][]Series)}
	panels := []struct {
		id   string
		load float64
	}{
		{id: "Abilene", load: 0.17},
		{id: "Cernet2", load: 0.21},
	}
	for _, panel := range panels {
		t, err := spef.ResolveTopology(strings.ToLower(panel.id))
		if err != nil {
			return nil, err
		}
		n := t.Network
		d, err := t.Demands.ScaledToLoad(n, panel.load)
		if err != nil {
			return nil, err
		}
		ospf, err := evaluateOSPF(ctx, n, d)
		if err != nil {
			return nil, err
		}
		p, err := optimizeSPEF(ctx, n, d, 1, opts)
		if err != nil {
			return nil, fmt.Errorf("fig9 %s: %w", panel.id, err)
		}
		report, err := p.Evaluate(d)
		if err != nil {
			return nil, err
		}
		ranks := make([]float64, n.NumLinks())
		for i := range ranks {
			ranks[i] = float64(i + 1)
		}
		res.Panels[panel.id] = []Series{
			{Name: "OSPF", X: ranks, Y: sortedDesc(ospf.LinkUtilization)},
			{Name: "SPEF", X: ranks, Y: sortedDesc(report.LinkUtilization)},
		}
	}
	return res, nil
}

// sortedDesc sorts u in decreasing order, the x-axis presentation of
// the paper's Fig. 9, and returns it.
func sortedDesc(u []float64) []float64 {
	sort.Sort(sort.Reverse(sort.Float64Slice(u)))
	return u
}

// Format prints both panels.
func (r *Fig9Result) Format(w io.Writer) {
	for _, id := range []string{"Abilene", "Cernet2"} {
		fmt.Fprintf(w, "# %s: sorted link utilizations\n", id)
		formatSeries(w, "rank", r.Panels[id])
	}
}

// fig10Loads gives each network's load sweep. Like the paper, each
// range runs up to (just past) the load where SPEF's MLU reaches 100%;
// the ceilings were calibrated against our generated instances, so the
// absolute x-ranges differ from the paper's per-panel axes while the
// protocol — sweep until saturation — is the same.
var fig10Loads = map[string][]float64{
	"Abilene": {0.12, 0.13, 0.14, 0.15, 0.16, 0.17, 0.18},
	"Cernet2": {0.12, 0.14, 0.16, 0.18, 0.20, 0.22},
	"Hier50a": {0.01, 0.02, 0.03, 0.04, 0.05, 0.06},
	"Hier50b": {0.01, 0.02, 0.03, 0.04, 0.045},
	"Rand50a": {0.05, 0.06, 0.07, 0.08, 0.09, 0.10},
	"Rand50b": {0.05, 0.06, 0.07, 0.08, 0.09, 0.10},
	"Rand100": {0.04, 0.06, 0.08, 0.10, 0.12},
}

// Fig10Result reproduces paper Fig. 10: normalized utility
// sum log(1-u) versus network load, OSPF against SPEF, per network.
type Fig10Result struct {
	// Panels maps network ID to the OSPF and SPEF utility curves.
	Panels map[string][]Series
	// Order preserves the paper's panel order.
	Order []string
}

// RunFig10 regenerates every panel of Fig. 10 on the public Scenario
// surface: each network's load sweep expands through a Grid (the same
// declarative spec `spef suite` runs; see EXPERIMENTS.md) and every
// (network, load, router) cell executes concurrently over
// Options.Workers workers with order-independent results. With
// opts.Quick only Abilene and Cernet2 are swept (the tests' fast path).
func RunFig10(ctx context.Context, opts Options) (*Fig10Result, error) {
	ids := []string{"Abilene", "Cernet2", "Hier50a", "Hier50b", "Rand50a", "Rand50b", "Rand100"}
	if opts.Quick {
		ids = ids[:2]
	}
	res := &Fig10Result{Panels: make(map[string][]Series), Order: ids}

	// One Grid per network (each panel sweeps its own load range), all
	// cells pooled into a single run so the worker pool spans networks.
	var cells []spef.Scenario
	for _, id := range ids {
		t, err := spef.ResolveTopology(strings.ToLower(id))
		if err != nil {
			return nil, err
		}
		loads := fig10Loads[id]
		if opts.Quick {
			loads = loads[:3]
		}
		res.Panels[id] = []Series{{Name: "OSPF", X: loads}, {Name: "SPEF", X: loads}}
		it1, it2 := opts.iters(t.Network.NumNodes())
		grid := spef.Grid{
			Topologies: []spef.Topology{t},
			Loads:      loads,
			Routers: []spef.Router{
				spef.OSPF(nil),
				spef.SPEF(spef.WithMaxIterations(it1), spef.WithSplitIterations(it2)),
			},
		}
		gc, err := grid.Scenarios()
		if err != nil {
			return nil, err
		}
		cells = append(cells, gc...)
	}
	results, err := spef.RunScenarios(ctx, cells, spef.RunOptions{
		Workers: opts.Workers,
		Metrics: []spef.Metric{spef.UtilityMetric()},
	})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		u := r.Utility()
		if r.Err != nil {
			if !errors.Is(r.Err, mcf.ErrInfeasible) {
				return nil, fmt.Errorf("fig10 %s: %w", r.Scenario, r.Err)
			}
			// The load exceeds what any routing can carry (the paper
			// stops its sweeps where SPEF's MLU reaches 100%).
			u = math.Inf(-1)
		}
		panel := res.Panels[r.Topology]
		// Cells expand loads-outer, routers-inner, so appending in
		// result order fills each curve in load order.
		if r.Router == "InvCap-OSPF" {
			panel[0].Y = append(panel[0].Y, u)
		} else {
			panel[1].Y = append(panel[1].Y, u)
		}
	}
	return res, nil
}

// Format prints every panel.
func (r *Fig10Result) Format(w io.Writer) {
	for _, id := range r.Order {
		fmt.Fprintf(w, "# %s: utility vs network load\n", id)
		formatSeries(w, "load", r.Panels[id])
	}
}

// Table5Result reproduces paper TABLE V: the number of ingress-egress
// pairs with i equal-cost paths (n1..n4+) under OSPF and SPEF on Cernet2
// at increasing network loads.
type Table5Result struct {
	Rows []Table5Row
}

// Table5Row is one (routing, load) line; N[i-1] counts pairs with i
// equal-cost paths (the last bucket aggregates >= len(N) paths).
type Table5Row struct {
	Routing string
	Load    float64
	N       [4]int
}

// RunTable5 regenerates TABLE V on the public API: it counts paths on
// the routes of InvCap OSPF and of spef.Optimize.
func RunTable5(ctx context.Context, opts Options) (*Table5Result, error) {
	t, err := spef.ResolveTopology("cernet2")
	if err != nil {
		return nil, err
	}
	n := t.Network
	loads := []float64{0.13, 0.17, 0.21}
	if opts.Quick {
		loads = loads[:1]
	}
	countPairs := func(routes *spef.Routes) ([4]int, error) {
		var c [4]int
		for s := 0; s < n.NumNodes(); s++ {
			for d := 0; d < n.NumNodes(); d++ {
				if s == d {
					continue
				}
				k, err := routes.EqualCostPaths(s, d)
				if err != nil {
					return c, err
				}
				c[min(max(k, 1), len(c))-1]++
			}
		}
		return c, nil
	}

	// Counting every ordered pair, like the paper's 380 (= 20*19), needs
	// forwarding state toward every node: OSPF routes a uniform mesh, and
	// SPEF's load-scaled gravity demands carry a tiny one.
	mesh, err := withMesh(spef.NewDemands(n), n, 1)
	if err != nil {
		return nil, err
	}
	ospf, err := spef.OSPF(nil).Routes(ctx, n, mesh)
	if err != nil {
		return nil, err
	}
	res := &Table5Result{Rows: []Table5Row{{Routing: "OSPF", Load: math.NaN()}}}
	if res.Rows[0].N, err = countPairs(ospf); err != nil {
		return nil, err
	}
	for _, load := range loads {
		d, err := t.Demands.ScaledToLoad(n, load)
		if err != nil {
			return nil, err
		}
		mixed, err := withMesh(d, n, d.Total()*1e-6/float64(n.NumNodes()*n.NumNodes()))
		if err != nil {
			return nil, err
		}
		p, err := optimizeSPEF(ctx, n, mixed, 1, opts)
		if err != nil {
			return nil, fmt.Errorf("table5 load %g: %w", load, err)
		}
		row := Table5Row{Routing: "SPEF", Load: load}
		if row.N, err = countPairs(p.Routes()); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// withMesh returns a copy of d with v added to the demand of every
// ordered pair of distinct nodes.
func withMesh(d *spef.Demands, n *spef.Network, v float64) (*spef.Demands, error) {
	out := d.Clone()
	for s := 0; s < n.NumNodes(); s++ {
		for t := 0; t < n.NumNodes(); t++ {
			if s != t {
				if err := out.Add(s, t, v); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// Format prints the table.
func (r *Table5Result) Format(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Routing\tNetwork loading\tn1\tn2\tn3\tn4+")
	for _, row := range r.Rows {
		load := "any"
		if !math.IsNaN(row.Load) {
			load = fmt.Sprintf("%.2f", row.Load)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\n", row.Routing, load, row.N[0], row.N[1], row.N[2], row.N[3])
	}
	tw.Flush()
}

// Fig13Result reproduces paper Fig. 13: utility with real versus
// rounded-integer first weights on Abilene and Cernet2.
type Fig13Result struct {
	Panels map[string][]Series
}

// RunFig13 regenerates Fig. 13.
func RunFig13(ctx context.Context, opts Options) (*Fig13Result, error) {
	res := &Fig13Result{Panels: make(map[string][]Series)}
	panels := []struct {
		id    string
		g     *graph.Graph
		loads []float64
	}{
		{id: "Abilene", g: topo.Abilene(), loads: []float64{0.12, 0.13, 0.14, 0.15, 0.16, 0.17, 0.18}},
		{id: "Cernet2", g: topo.Cernet2(), loads: []float64{0.10, 0.12, 0.14, 0.16, 0.18}},
	}
	// The integer rebuild runs Algorithm 2 on a fixed budget.
	_, intIt2 := opts.iters(50)
	for _, panel := range panels {
		g := panel.g
		base, err := traffic.CanonicalMatrix(panel.id, g)
		if err != nil {
			return nil, err
		}
		obj, err := objective.NewQBeta(1, g.NumLinks(), nil)
		if err != nil {
			return nil, err
		}
		it1, it2 := opts.iters(g.NumNodes())
		loads := panel.loads
		if opts.Quick {
			loads = loads[:2]
		}
		realU := Series{Name: "Noninteger", X: loads}
		intU := Series{Name: "Integer", X: loads}
		for _, load := range loads {
			tm, err := base.ScaledToLoad(g, load)
			if err != nil {
				return nil, err
			}
			p, err := core.Build(ctx, g, tm, obj, core.Options{
				First:  core.FirstWeightOptions{MaxIters: it1},
				Second: core.SecondWeightOptions{MaxIters: it2},
			})
			if err != nil {
				return nil, fmt.Errorf("fig13 %s load %g: %w", panel.id, load, err)
			}
			flow, err := p.Flow(tm)
			if err != nil {
				return nil, err
			}
			realU.Y = append(realU.Y, objective.LogSpareUtility(g, flow.Total))

			iw, _, err := core.IntegerWeights(p.First.W, p.First.Spare)
			if err != nil {
				return nil, err
			}
			// Integer weights use the paper's Dijkstra tolerance of 1 in
			// the integer weight space.
			ip, err := core.BuildWithWeights(ctx, g, tm, iw, p.First.Flow, 1.0,
				core.SecondWeightOptions{MaxIters: intIt2})
			if err != nil {
				return nil, err
			}
			iFlow, err := ip.Flow(tm)
			if err != nil {
				return nil, err
			}
			intU.Y = append(intU.Y, objective.LogSpareUtility(g, iFlow.Total))
		}
		res.Panels[panel.id] = []Series{realU, intU}
	}
	return res, nil
}

// Format prints both panels.
func (r *Fig13Result) Format(w io.Writer) {
	for _, id := range []string{"Abilene", "Cernet2"} {
		fmt.Fprintf(w, "# %s: utility, noninteger vs integer weights\n", id)
		formatSeries(w, "load", r.Panels[id])
	}
}
