package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/par"
	"repro/internal/traffic"
)

// workspaces recycles per-worker graph scratch across the pipeline's
// hot loops (Algorithm 2's per-iteration distribution, DAG builds);
// every parallel destination worker draws a private arena.
var workspaces graph.WorkspacePool

// SecondWeightOptions tunes Algorithm 2 (the NEM dual gradient for the
// second link weights). Zero values select defaults.
type SecondWeightOptions struct {
	// MaxIters bounds the gradient iterations (default 2000).
	MaxIters int
	// StepRatio scales the default step 1/max{f*_ij} (the paper's
	// recommendation); default 1. Fig. 12(b) sweeps this ratio.
	StepRatio float64
	// Eps is the per-link budget violation tolerance of the stopping rule
	// f_ij <= f*_ij + eps (default 1e-3 * max budget).
	Eps float64
	// TraceEvery records the NEM dual objective every k iterations
	// (Fig. 12b); 0 disables tracing.
	TraceEvery int
	// Progress, when non-nil, is invoked once per gradient iteration
	// with the current and maximum iteration counts.
	Progress func(iter, maxIters int)
}

// SecondWeightResult is the output of Algorithm 2.
type SecondWeightResult struct {
	// V is the second link weight vector.
	V []float64
	// Flow is the traffic distribution realized by exponential splitting
	// under V over the shortest-path DAGs.
	Flow *mcf.Flow
	// DualTrace holds the NEM dual objective every TraceEvery iterations.
	DualTrace []float64
	// Iters is the number of iterations performed.
	Iters int
	// MaxViolation is max_e (f_e - budget_e) at termination.
	MaxViolation float64
}

// splitRatios computes the exponential traffic split of paper Eq. (22)
// for one destination DAG: the shared DAG recursion with the second link
// weights as the exponential penalty — exactly the per-path Table II
// formula (verified against enumeration in tests).
func splitRatios(g *graph.Graph, d *graph.DAG, v []float64) ([]float64, []float64) {
	return graph.ExponentialSplits(g, d, v)
}

// TrafficDistribution is the paper's Algorithm 3: it computes the flow
// induced by exponential splitting with second weights v over the
// per-destination shortest-path DAGs, processing sources in decreasing
// distance order and splitting each node's accumulated traffic by the
// ratios of Eq. (22).
func TrafficDistribution(g *graph.Graph, dags map[int]*graph.DAG, tm *traffic.Matrix, v []float64) (*mcf.Flow, error) {
	return TrafficDistributionInto(g, dags, tm, v, nil)
}

// TrafficDistributionInto is TrafficDistribution with an optional
// reusable output flow (created for the same graph and destinations,
// as mcf.Flow.CheckReuse checks; nil allocates a fresh one). Algorithm
// 2 evaluates the distribution once per gradient iteration, so reuse
// removes the dominant allocation, and a reused flow supplies the
// destination list.
//
// Destinations are evaluated concurrently (par.Do): each commodity
// reads the shared DAGs and weights and writes only its own per-
// destination vector through a private workspace, so the result is
// bit-identical to the sequential loop for any worker count.
func TrafficDistributionInto(g *graph.Graph, dags map[int]*graph.DAG, tm *traffic.Matrix, v []float64, flow *mcf.Flow) (*mcf.Flow, error) {
	if len(v) != g.NumLinks() {
		return nil, fmt.Errorf("%w: got %d second weights for %d links", ErrBadInput, len(v), g.NumLinks())
	}
	if flow == nil {
		flow = mcf.NewFlow(g, tm.Destinations())
	} else if err := flow.CheckReuse(g, tm); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	dests := flow.Destinations()
	for _, t := range dests {
		if _, ok := dags[t]; !ok {
			return nil, fmt.Errorf("%w: no shortest-path DAG for destination %d", ErrBadInput, t)
		}
	}
	errs := make([]error, len(dests))
	par.Do(len(dests), func(i int) {
		t := dests[i]
		d := dags[t]
		ws := workspaces.Get(g)
		ratio, _ := ws.ExponentialSplits(g, d, v)
		demand := tm.ToDestinationInto(t, ws.DemandBuffer(g))
		errs[i] = ws.PropagateDownInto(g, d, demand, ratio, flow.PerDest[t])
		workspaces.Put(ws)
	})
	// Scanning in index order keeps the reported failure independent
	// of scheduling order.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	flow.RecomputeTotal()
	return flow, nil
}

// SecondWeights runs Algorithm 2: the dual gradient projection for the
// NEM problem (paper Eq. 17/19/21). budget is the per-link optimal flow
// f*_ij from Algorithm 1; the returned weights make the exponential
// split reproduce a distribution within Eps of the budget on every link.
// Cancelling ctx aborts the iteration with the context's error.
func SecondWeights(ctx context.Context, g *graph.Graph, tm *traffic.Matrix, dags map[int]*graph.DAG, budget []float64, opts SecondWeightOptions) (*SecondWeightResult, error) {
	if len(budget) != g.NumLinks() {
		return nil, fmt.Errorf("%w: got %d budget entries for %d links", ErrBadInput, len(budget), g.NumLinks())
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 2000
	}
	if opts.StepRatio <= 0 {
		opts.StepRatio = 1
	}
	var maxBudget float64
	for _, b := range budget {
		if b > maxBudget {
			maxBudget = b
		}
	}
	if maxBudget == 0 {
		return nil, fmt.Errorf("%w: all-zero flow budget", ErrBadInput)
	}
	if opts.Eps <= 0 {
		opts.Eps = 1e-3 * maxBudget
	}
	gamma := opts.StepRatio / maxBudget

	// v0 = 0: pure path-count entropy split (the paper notes this is
	// already a good approximation of the dual optimum).
	v := make([]float64, g.NumLinks())
	var (
		trace        []float64
		flow         = mcf.NewFlow(g, tm.Destinations()) // reused across iterations
		err          error
		maxViolation float64
	)
	iters := 0
	for k := 0; k < opts.MaxIters; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: algorithm 2 canceled at iteration %d: %w", k, err)
		}
		iters = k + 1
		if opts.Progress != nil {
			opts.Progress(iters, opts.MaxIters)
		}
		flow, err = TrafficDistributionInto(g, dags, tm, v, flow)
		if err != nil {
			return nil, err
		}
		if opts.TraceEvery > 0 && k%opts.TraceEvery == 0 {
			trace = append(trace, nemDualObjective(g, dags, tm, v, budget))
		}
		maxViolation = math.Inf(-1)
		for e := range budget {
			if d := flow.Total[e] - budget[e]; d > maxViolation {
				maxViolation = d
			}
		}
		if maxViolation <= opts.Eps {
			break
		}
		// Gradient projection step (Eq. 21).
		for e := range v {
			v[e] = math.Max(v[e]-gamma*(budget[e]-flow.Total[e]), 0)
		}
	}
	return &SecondWeightResult{
		V:            v,
		Flow:         flow,
		DualTrace:    trace,
		Iters:        iters,
		MaxViolation: maxViolation,
	}, nil
}

// nemDualObjective evaluates the Lagrange dual of NEM(SP, f, D):
//
//	d(v) = sum_r d_r log( sum_k e^(-v^r_k) ) + sum_e v_e f*_e,
//
// where the inner sum runs over the equal-cost shortest paths of pair r
// and is exactly Z(s_r) of the split recursion. Plotted in Fig. 12(b).
func nemDualObjective(g *graph.Graph, dags map[int]*graph.DAG, tm *traffic.Matrix, v, budget []float64) float64 {
	var d float64
	logZs := make(map[int][]float64, len(dags))
	for _, t := range tm.Destinations() {
		if _, ok := logZs[t]; !ok {
			_, logZ := splitRatios(g, dags[t], v)
			logZs[t] = logZ
		}
	}
	for _, dem := range tm.Demands() {
		d += dem.Volume * logZs[dem.Dst][dem.Src]
	}
	for e := range v {
		d += v[e] * budget[e]
	}
	return d
}
