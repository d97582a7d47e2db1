package experiments

import (
	"context"
	"fmt"
	"io"

	spef "repro"
	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Fig2Result holds the link-cost curves of paper Fig. 2: cost as a
// function of load for a unit-capacity link, for Fortz-Thorup and
// (q=1, beta) with beta = 0, 1, 2.
type Fig2Result struct {
	Curves []Series
}

// RunFig2 regenerates Fig. 2.
func RunFig2(_ context.Context, _ Options) (*Fig2Result, error) {
	loads := make([]float64, 0, 100)
	for u := 0.0; u < 0.995; u += 0.01 {
		loads = append(loads, u)
	}
	res := &Fig2Result{}
	ft := objective.FortzThorup{}
	ftSeries := Series{Name: "FT", X: loads}
	for _, u := range loads {
		ftSeries.Y = append(ftSeries.Y, ft.Cost(0, u, 1))
	}
	res.Curves = append(res.Curves, ftSeries)
	for _, beta := range []float64{0, 1, 2} {
		o, err := objective.NewQBeta(beta, 1, nil)
		if err != nil {
			return nil, err
		}
		s := Series{Name: fmt.Sprintf("beta=%g", beta), X: loads}
		for _, u := range loads {
			s.Y = append(s.Y, o.Cost(0, u, 1))
		}
		res.Curves = append(res.Curves, s)
	}
	return res, nil
}

// Format prints the cost curves as columns.
func (r *Fig2Result) Format(w io.Writer) {
	formatSeries(w, "load", r.Curves)
}

// Fig3Result holds paper Fig. 3: first link weights (a) and link
// utilizations (b) on the Fig. 1 network as beta sweeps 0..5.
type Fig3Result struct {
	Betas []float64
	// WeightSeries[i] is the weight of link i per beta; same order as
	// Table I ((1,3), (3,4), (1,2), (2,3)).
	WeightSeries []Series
	UtilSeries   []Series
}

// RunFig3 regenerates Fig. 3.
func RunFig3(ctx context.Context, opts Options) (*Fig3Result, error) {
	g := topo.Fig1()
	tm, err := traffic.FromDemands(g.NumNodes(), topo.Fig1Demands())
	if err != nil {
		return nil, err
	}
	betas := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}
	if opts.Quick {
		betas = []float64{0, 1, 2, 5}
	}
	it1, _ := opts.iters(g.NumNodes())
	if !opts.Quick {
		it1 = 30000
	}
	names := []string{"arc(1,3)", "arc(3,4)", "arc(1,2)", "arc(2,3)"}
	res := &Fig3Result{Betas: betas}
	for e := range names {
		res.WeightSeries = append(res.WeightSeries, Series{Name: names[e], X: betas})
		res.UtilSeries = append(res.UtilSeries, Series{Name: names[e], X: betas})
	}
	for _, beta := range betas {
		obj, err := objective.NewQBeta(beta, g.NumLinks(), nil)
		if err != nil {
			return nil, err
		}
		r, err := core.FirstWeights(ctx, g, tm, obj, core.FirstWeightOptions{MaxIters: it1})
		if err != nil {
			return nil, fmt.Errorf("fig3 beta=%g: %w", beta, err)
		}
		util := objective.Utilizations(g, r.Flow.Total)
		for e := range names {
			res.WeightSeries[e].Y = append(res.WeightSeries[e].Y, r.W[e])
			res.UtilSeries[e].Y = append(res.UtilSeries[e].Y, util[e])
		}
	}
	return res, nil
}

// Format prints the weight and utilization sweeps.
func (r *Fig3Result) Format(w io.Writer) {
	fmt.Fprintln(w, "# (a) first link weights vs beta")
	formatSeries(w, "beta", r.WeightSeries)
	fmt.Fprintln(w, "# (b) link utilizations vs beta")
	formatSeries(w, "beta", r.UtilSeries)
}

// Fig67Result holds paper Figs. 6 and 7 on the simple network of Fig. 4:
// per-link utilizations for OSPF and SPEF(beta = 0, 1, 5) and the first
// and second link weights per beta.
type Fig67Result struct {
	// Links are 1-based link indices as in the paper's x-axes.
	Links []int
	// Util[scheme][e]: scheme is "OSPF", "SPEF0", "SPEF1", "SPEF5".
	Util map[string][]float64
	// FirstWeights and SecondWeights per SPEF scheme.
	FirstWeights  map[string][]float64
	SecondWeights map[string][]float64
}

// RunFig67 regenerates Figs. 6 and 7.
func RunFig67(ctx context.Context, opts Options) (*Fig67Result, error) {
	n, d, err := spef.SimpleExample()
	if err != nil {
		return nil, err
	}
	res := &Fig67Result{
		Links:         make([]int, n.NumLinks()),
		Util:          make(map[string][]float64),
		FirstWeights:  make(map[string][]float64),
		SecondWeights: make(map[string][]float64),
	}
	for e := range res.Links {
		res.Links[e] = e + 1
	}

	ospf, err := evaluateOSPF(ctx, n, d)
	if err != nil {
		return nil, err
	}
	res.Util["OSPF"] = ospf.LinkUtilization

	for _, beta := range []float64{0, 1, 5} {
		name := fmt.Sprintf("SPEF%g", beta)
		p, err := optimizeSPEF(ctx, n, d, beta, opts)
		if err != nil {
			return nil, fmt.Errorf("fig67 %s: %w", name, err)
		}
		report, err := p.Evaluate(d)
		if err != nil {
			return nil, err
		}
		res.Util[name] = report.LinkUtilization
		res.FirstWeights[name] = p.FirstWeights()
		res.SecondWeights[name] = p.SecondWeights()
	}
	return res, nil
}

// Format prints Fig. 6 (utilizations) then Fig. 7 (weights).
func (r *Fig67Result) Format(w io.Writer) {
	order := []string{"OSPF", "SPEF0", "SPEF1", "SPEF5"}
	xs := make([]float64, len(r.Links))
	for i, l := range r.Links {
		xs[i] = float64(l)
	}
	var util []Series
	for _, name := range order {
		if u, ok := r.Util[name]; ok {
			util = append(util, Series{Name: name, X: xs, Y: u})
		}
	}
	fmt.Fprintln(w, "# Fig 6: link utilizations")
	formatSeries(w, "link", util)
	var first, second []Series
	for _, name := range order[1:] {
		first = append(first, Series{Name: name, X: xs, Y: r.FirstWeights[name]})
		second = append(second, Series{Name: name, X: xs, Y: r.SecondWeights[name]})
	}
	fmt.Fprintln(w, "# Fig 7a: first link weights")
	formatSeries(w, "link", first)
	fmt.Fprintln(w, "# Fig 7b: second link weights")
	formatSeries(w, "link", second)
}
