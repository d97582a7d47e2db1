package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Fig12Result reproduces paper Fig. 12: the evolution of the dual
// objective of Algorithm 1 (TE) and Algorithm 2 (NEM) on Cernet2 under
// different step-size ratios.
type Fig12Result struct {
	// TE holds one series per step ratio for Algorithm 1 (x =
	// iteration).
	TE []Series
	// NEM holds one series per step ratio for Algorithm 2.
	NEM []Series
}

// RunFig12 regenerates Fig. 12. Step ratios follow the paper's legends:
// 2, 1, 0.5, 0.1 for Algorithm 1 and 2, 1, 0.5, 0.25 for Algorithm 2.
func RunFig12(ctx context.Context, opts Options) (*Fig12Result, error) {
	g := topo.Cernet2()
	base, err := traffic.CanonicalMatrix("Cernet2", g)
	if err != nil {
		return nil, err
	}
	tm, err := base.ScaledToLoad(g, 0.21)
	if err != nil {
		return nil, err
	}
	obj, err := objective.NewQBeta(1, g.NumLinks(), nil)
	if err != nil {
		return nil, err
	}
	iters1, iters2 := 2000, 1000
	trace1, trace2 := 20, 10
	if opts.Quick {
		iters1, iters2 = 200, 100
		trace1, trace2 = 10, 5
	}

	res := &Fig12Result{}
	for _, ratio := range []float64{2, 1, 0.5, 0.1} {
		r, err := core.FirstWeights(ctx, g, tm, obj, core.FirstWeightOptions{
			MaxIters:   iters1,
			Mode:       core.StepConstant,
			StepRatio:  ratio,
			TraceEvery: trace1,
			Tol:        1e-12, // run the full horizon like the paper's plot
		})
		if err != nil {
			return nil, fmt.Errorf("fig12a ratio %g: %w", ratio, err)
		}
		s := Series{Name: fmt.Sprintf("ratio=%g", ratio)}
		for i, v := range r.DualTrace {
			s.X = append(s.X, float64(i*trace1))
			s.Y = append(s.Y, v)
		}
		res.TE = append(res.TE, s)
	}

	// Algorithm 2 convergence: fix the first-weight stage (ratio 1), then
	// sweep the NEM step ratio.
	first, err := core.FirstWeights(ctx, g, tm, obj, core.FirstWeightOptions{MaxIters: iters1})
	if err != nil {
		return nil, err
	}
	tol := core.EqualCostTol(first.W)
	dags := make(map[int]*graph.DAG)
	for _, t := range tm.Destinations() {
		d, err := graph.BuildDAG(g, first.W, t, tol)
		if err != nil {
			return nil, err
		}
		dags[t] = d
	}
	for _, ratio := range []float64{2, 1, 0.5, 0.25} {
		r, err := core.SecondWeights(ctx, g, tm, dags, first.Budget, core.SecondWeightOptions{
			MaxIters:   iters2,
			StepRatio:  ratio,
			TraceEvery: trace2,
			Eps:        1e-12, // run the full horizon
		})
		if err != nil {
			return nil, fmt.Errorf("fig12b ratio %g: %w", ratio, err)
		}
		s := Series{Name: fmt.Sprintf("ratio=%g", ratio)}
		for i, v := range r.DualTrace {
			s.X = append(s.X, float64(i*trace2))
			s.Y = append(s.Y, v)
		}
		res.NEM = append(res.NEM, s)
	}
	return res, nil
}

// Format prints both convergence panels.
func (r *Fig12Result) Format(w io.Writer) {
	fmt.Fprintln(w, "# (a) dual objective of Algorithm 1 (TE) vs iteration")
	formatSeries(w, "iter", r.TE)
	fmt.Fprintln(w, "# (b) dual objective of Algorithm 2 (NEM) vs iteration")
	formatSeries(w, "iter", r.NEM)
}
