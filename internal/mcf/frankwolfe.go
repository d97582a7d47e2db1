package mcf

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/traffic"
)

// FWOptions tunes the Frank-Wolfe solver. Zero values select defaults.
type FWOptions struct {
	// MaxIters bounds the number of Frank-Wolfe iterations (default 2000).
	MaxIters int
	// RelGap is the relative duality-gap stopping criterion (default 1e-6).
	RelGap float64
	// Init supplies a warm-start flow. It must route the same demand
	// matrix: a flow whose commodities are not exactly the matrix's
	// destinations (Flow.CheckReuse) is an error, which
	// FrankWolfeContinuation returns from its first FrankWolfe call.
	// When its cost is finite it replaces the default all-or-nothing
	// starting point.
	Init *Flow
	// NoLPFallback disables the minimum-MLU LP starting point (too
	// expensive on large networks; used by the continuation solver).
	NoLPFallback bool
}

// FWResult is the output of FrankWolfe.
type FWResult struct {
	Flow *Flow
	// Cost is the achieved total cost sum Phi(f_e).
	Cost float64
	// Gap is the final relative Frank-Wolfe gap (upper bound on
	// suboptimality).
	Gap float64
	// Iters is the number of iterations performed.
	Iters int
}

// FrankWolfe minimizes the convex separable cost sum_e Phi_e(f_e) over
// the multi-commodity flow polytope of the demand matrix — the classic
// traffic-assignment algorithm. It is the reproduction's independent
// "optimal TE" oracle: for the (q,beta) cost it computes the same optimum
// as the paper's Algorithm 1, and for the Fortz-Thorup cost the optimal
// baseline of Table I.
//
// Barrier costs (beta >= 1) require a strictly feasible starting point;
// when the initial all-or-nothing assignment overloads a link, the solver
// falls back to the minimum-MLU LP flow (which is strictly interior
// whenever the instance is strictly feasible). Returns ErrInfeasible when
// no feasible flow exists.
func FrankWolfe(ctx context.Context, g *graph.Graph, tm *traffic.Matrix, cost objective.CostFunc, opts FWOptions) (*FWResult, error) {
	if opts.Init != nil {
		if err := opts.Init.CheckReuse(g, tm); err != nil {
			return nil, fmt.Errorf("mcf: FWOptions.Init does not route the demand matrix: %w", err)
		}
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 2000
	}
	if opts.RelGap <= 0 {
		opts.RelGap = 1e-6
	}
	flow, err := fwStart(g, tm, cost, opts)
	if err != nil {
		return nil, err
	}
	cur := objective.TotalCost(cost, g, flow.Total)
	if math.IsInf(cur, 1) {
		return nil, fmt.Errorf("%w: no strictly feasible starting flow", ErrInfeasible)
	}
	// Every iteration overwrites the same prices, target flow and
	// line-search direction: no per-link vector is allocated per
	// iteration.
	prices := make([]float64, g.NumLinks())
	dir := make([]float64, g.NumLinks())
	var target *Flow
	var gap float64
	iters := 0
	for ; iters < opts.MaxIters; iters++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mcf: frank-wolfe canceled at iteration %d: %w", iters, err)
		}
		objective.PricesInto(cost, g, flow.Total, prices)
		target, err = AllOrNothingInto(g, tm, prices, target)
		if err != nil {
			return nil, err
		}
		// Frank-Wolfe gap: prices . (f - f_target) >= cost(f) - cost(opt).
		gap = 0
		for e := range prices {
			gap += prices[e] * (flow.Total[e] - target.Total[e])
		}
		if gap <= opts.RelGap*math.Max(1, math.Abs(cur)) {
			break
		}
		gamma := fwLineSearch(g, cost, flow, target, dir)
		if gamma <= 0 {
			break
		}
		flow.Blend(target, gamma)
		cur = objective.TotalCost(cost, g, flow.Total)
	}
	return &FWResult{Flow: flow, Cost: cur, Gap: gap / math.Max(1, math.Abs(cur)), Iters: iters}, nil
}

// fwStart produces a feasible (for barrier costs, strictly interior)
// starting flow: the warm start when supplied and finite, then a cheap
// all-or-nothing assignment, then (unless disabled) the minimum-MLU LP.
func fwStart(g *graph.Graph, tm *traffic.Matrix, cost objective.CostFunc, opts FWOptions) (*Flow, error) {
	finiteCost := func(f *Flow) bool {
		for id, x := range f.Total {
			if math.IsInf(cost.Cost(id, x, g.Link(id).Cap), 1) {
				return false
			}
		}
		return true
	}
	if opts.Init != nil && finiteCost(opts.Init) {
		return opts.Init.Clone(), nil
	}
	// All-or-nothing at empty-network prices: cheap and usually fine at
	// low loads.
	prices := objective.Prices(cost, g, make([]float64, g.NumLinks()))
	flow, err := AllOrNothing(g, tm, prices)
	if err != nil {
		return nil, err
	}
	if finiteCost(flow) {
		return flow, nil
	}
	if opts.NoLPFallback {
		return nil, fmt.Errorf("%w: no finite-cost starting flow (LP fallback disabled)", ErrInfeasible)
	}
	// Fall back to the minimum-MLU flow.
	mlu, err := MinMLU(g, tm)
	if err != nil {
		return nil, err
	}
	if mlu.MLU >= 1 {
		return nil, fmt.Errorf("%w: minimum MLU %.4f >= 1", ErrInfeasible, mlu.MLU)
	}
	return mlu.Flow, nil
}

// FrankWolfeContinuation minimizes the convex cost like FrankWolfe but
// reaches strict feasibility by capacity-inflation continuation instead
// of the minimum-MLU LP: it solves a sequence of problems with
// capacities (1+delta)c, shrinking delta toward zero, warm-starting each
// round from the previous optimum. This scales to networks where the LP
// would be prohibitive. Returns ErrInfeasible when delta stalls (the
// instance has no strictly feasible flow).
func FrankWolfeContinuation(ctx context.Context, g *graph.Graph, tm *traffic.Matrix, cost objective.CostFunc, opts FWOptions) (*FWResult, error) {
	opts.NoLPFallback = true
	res, err := FrankWolfe(ctx, g, tm, cost, opts)
	if err == nil {
		return res, nil
	}
	if !errors.Is(err, ErrInfeasible) {
		return nil, err
	}
	// Build the initial flow: the warm start if any, else all-or-nothing
	// at empty-network prices.
	cur := opts.Init
	if cur == nil {
		prices := objective.Prices(cost, g, make([]float64, g.NumLinks()))
		cur, err = AllOrNothing(g, tm, prices)
		if err != nil {
			return nil, err
		}
	}
	caps := g.Capacities()
	maxU := func(f *Flow) float64 {
		var m float64
		for e, c := range caps {
			if u := f.Total[e] / c; u > m {
				m = u
			}
		}
		return m
	}
	// Inflation requirements scale with the flow's excess over capacity
	// (maxU - 1): a proportional margin on the excess lets delta shrink
	// geometrically as the iterates approach the feasible region, while a
	// genuinely infeasible instance keeps the excess (and so the
	// required inflation) bounded away from zero.
	required := func(f *Flow) float64 {
		return math.Max(1.3*(maxU(f)-1), 0)
	}
	delta := math.Max(required(cur), 0.02)
	for round := 0; round < 60; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mcf: continuation canceled at round %d: %w", round, err)
		}
		inflated := make([]float64, len(caps))
		for e, c := range caps {
			inflated[e] = c * (1 + delta)
		}
		gi, err := g.WithCapacities(inflated)
		if err != nil {
			return nil, err
		}
		roundOpts := opts
		roundOpts.Init = cur
		res, err := FrankWolfe(ctx, gi, tm, cost, roundOpts)
		if err != nil {
			return nil, fmt.Errorf("mcf: continuation round %d (delta=%.4g): %w", round, delta, err)
		}
		cur = res.Flow
		if maxU(cur) < 1-1e-6 {
			// Strictly feasible for the true capacities: final exact solve
			// from this interior point.
			finalOpts := opts
			finalOpts.Init = cur
			return FrankWolfe(ctx, g, tm, cost, finalOpts)
		}
		// Any feasible flow has maxU >= min-MLU, so a required inflation
		// that refuses to shrink means the instance is infeasible.
		next := math.Max(delta/4, required(cur))
		if next >= delta*0.95 {
			return nil, fmt.Errorf("%w: continuation stalled at delta=%.4g (min MLU >= 1)", ErrInfeasible, delta)
		}
		delta = math.Max(next, 1e-9)
	}
	return nil, fmt.Errorf("%w: continuation did not converge", ErrInfeasible)
}

// fwLineSearch minimizes h(gamma) = cost((1-gamma) f + gamma target)
// over [0, 1] by bisection on the monotone derivative h'(gamma) (one
// batched cost.Slope per evaluation), guarding against the +Inf
// barrier region. dir (length NumLinks) is overwritten with the search
// direction target - flow.
func fwLineSearch(g *graph.Graph, cost objective.CostFunc, flow, target *Flow, dir []float64) float64 {
	for e := range dir {
		dir[e] = target.Total[e] - flow.Total[e]
	}
	// Largest gamma keeping every link feasible where the direction
	// increases flow. Costs that are finite beyond capacity (Fortz-
	// Thorup) need no guard; hard-capacitated costs cap gamma at the
	// remaining room, staying strictly interior for barrier costs.
	hi := 1.0
	for e, de := range dir {
		if de <= 0 {
			continue
		}
		l := g.Link(e)
		if !math.IsInf(cost.Cost(l.ID, l.Cap*(1+1e-9), l.Cap), 1) {
			continue // overload permitted: no guard
		}
		margin := 1.0
		if math.IsInf(cost.Cost(l.ID, l.Cap, l.Cap), 1) {
			margin = 0.999 // barrier at capacity: stay strictly inside
		}
		room := l.Cap - flow.Total[e]
		if g := margin * room / de; g < hi {
			hi = g
		}
	}
	if hi <= 0 {
		return 0
	}
	if cost.Slope(g, flow.Total, dir, 0) >= 0 {
		return 0
	}
	if cost.Slope(g, flow.Total, dir, hi) <= 0 {
		return hi
	}
	lo := 0.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if cost.Slope(g, flow.Total, dir, mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
