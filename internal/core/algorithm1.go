package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/objective"
	"repro/internal/traffic"
)

// ErrBadInput reports inconsistent arguments to the SPEF algorithms.
var ErrBadInput = errors.New("core: bad input")

// StepMode selects the subgradient step-size schedule of Algorithm 1.
type StepMode int

const (
	// StepDiminishing uses gamma_k = gamma0/sqrt(k+1), satisfying the
	// conditions of Theorem 4.1 (sum gamma = inf, gamma -> 0).
	StepDiminishing StepMode = iota + 1
	// StepConstant uses gamma_k = gamma0, the schedule of the paper's
	// convergence experiments (Section V-F, Fig. 12a).
	StepConstant
)

// FirstWeightOptions tunes Algorithm 1. Zero values select defaults.
type FirstWeightOptions struct {
	// MaxIters bounds the subgradient iterations (default 4000).
	MaxIters int
	// StepRatio scales the default initial step 1/max{c_ij} (the paper's
	// recommendation); default 1. Fig. 12(a) sweeps this ratio.
	StepRatio float64
	// Mode selects the step schedule (default StepDiminishing).
	Mode StepMode
	// Tol is the relative tolerance for early termination (default
	// 1e-6): the loop stops once the current iterate's |Σ w(f + s − c)|
	// is at most Tol·(1 + |dual objective|) there. It is tested only
	// during the averaging half (from iteration MaxIters/2), on the
	// current iterate, not on the running averages.
	Tol float64
	// TraceEvery records the dual objective every k iterations into
	// DualTrace (0 disables tracing).
	TraceEvery int
	// NoRefine disables the primal refinement stage. By default the
	// averaged subgradient flow seeds a Frank-Wolfe solve of the same
	// convex program, and the reported weights are read off the refined
	// optimum via Theorem 3.1's explicit formula w = V'(c - f*). This is
	// essential for large beta, where the dual scale q/s^beta grows so
	// fast that raw subgradient iterates cannot reach it.
	NoRefine bool
	// Progress, when non-nil, is invoked once per subgradient iteration
	// with the current and maximum iteration counts. It runs on the
	// optimizing goroutine; long callbacks slow the solve.
	Progress func(iter, maxIters int)
}

// FirstWeightResult is the output of Algorithm 1.
type FirstWeightResult struct {
	// W is the first link weight vector w*. With refinement enabled
	// (default) it is V'(c - f*) at the refined primal optimum (Theorem
	// 3.1); otherwise the tail-averaged subgradient iterates.
	W []float64
	// WDual is the tail-averaged subgradient weight vector (diagnostic;
	// equals W when refinement is disabled).
	WDual []float64
	// Flow is the recovered optimal traffic distribution (refined, or the
	// ergodic average of the per-iteration shortest-path flows).
	Flow *mcf.Flow
	// Budget is the per-link optimal flow f*_ij = Flow.Total, the NEM
	// capacity budget of Algorithm 2.
	Budget []float64
	// Spare is c - Budget, the realized spare capacity vector.
	Spare []float64
	// SpareDual is the spare capacity implied by the averaged subgradient
	// weights via the Link subproblem, s = V'^{-1}(WDual); for beta >= 1
	// and non-saturated optima it coincides with Spare (Theorem 4.1) and
	// serves as a consistency diagnostic.
	SpareDual []float64
	// DualTrace holds the dual objective at every TraceEvery-th
	// iteration (Fig. 12a).
	DualTrace []float64
	// Iters is the number of subgradient iterations performed.
	Iters int
	// Gap is Σ w(f + s − c) at the last iterate: a signed residual, not
	// a bound on the distance to the optimum, and it can be negative.
	Gap float64
}

// wFloor keeps every weight strictly positive so shortest-path distances
// strictly decrease along forwarding links (loop freedom); the paper
// proves optimal weights are positive (Section III-A), so a tiny floor
// does not change the optimum.
const wFloor = 1e-9

// FirstWeights runs Algorithm 1, the distributed dual decomposition for
// the first link weights: at every iteration each link solves its spare-
// capacity subproblem, each destination routes its demand on current
// shortest paths (the Route_t minimum-cost flow, Eq. 15), and weights
// take a projected subgradient step (Eq. 16). Primal solutions are
// recovered by tail averaging (second half of the run). Cancelling ctx
// aborts the loop (and the refinement stage) with the context's error.
func FirstWeights(ctx context.Context, g *graph.Graph, tm *traffic.Matrix, obj *objective.QBeta, opts FirstWeightOptions) (*FirstWeightResult, error) {
	if obj.Links() != g.NumLinks() {
		return nil, fmt.Errorf("%w: objective covers %d links, graph has %d", ErrBadInput, obj.Links(), g.NumLinks())
	}
	if tm.Size() != g.NumNodes() {
		return nil, fmt.Errorf("%w: traffic matrix covers %d nodes, graph has %d", ErrBadInput, tm.Size(), g.NumNodes())
	}
	if len(tm.Destinations()) == 0 {
		return nil, fmt.Errorf("%w: traffic matrix is empty", ErrBadInput)
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 4000
	}
	if opts.StepRatio <= 0 {
		opts.StepRatio = 1
	}
	if opts.Mode == 0 {
		opts.Mode = StepDiminishing
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}

	links := g.Links()
	var maxCap float64
	for _, l := range links {
		if l.Cap > maxCap {
			maxCap = l.Cap
		}
	}
	gamma0 := opts.StepRatio / maxCap

	// Initial weights: w0 = 1/c (the paper's InvCap initialization).
	w := make([]float64, len(links))
	for _, l := range links {
		w[l.ID] = 1 / l.Cap
	}
	s := make([]float64, len(links))

	dests := tm.Destinations()
	avgFrom := opts.MaxIters / 2
	if avgFrom < 1 {
		avgFrom = 1
	}
	wSum := make([]float64, len(links))
	flowSum := mcf.NewFlow(g, dests)
	avgCount := 0

	var trace []float64
	var finalGap float64
	iters := 0
	scratch := mcf.NewFlow(g, dests) // reused across iterations
	// Both flows list dests and are written only in place, so their
	// tables, read once here, stay their commodity vectors: the tail
	// averages walk the tables, not the maps.
	sumRows, flowRows := flowSum.Rows(), scratch.Rows()
	for k := 0; k < opts.MaxIters; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: algorithm 1 canceled at iteration %d: %w", k, err)
		}
		iters = k + 1
		if opts.Progress != nil {
			opts.Progress(iters, opts.MaxIters)
		}
		// Per-link subproblem: s_ij = argmax V(s) - w s over [0, c].
		for _, l := range links {
			s[l.ID] = obj.LinkSpare(l.ID, w[l.ID], l.Cap)
		}
		// Per-destination routing subproblem: all demand on shortest
		// paths under w.
		flow, err := mcf.AllOrNothingInto(g, tm, w, scratch)
		if err != nil {
			return nil, err
		}
		// Dual gap (optimality measure of the paper):
		// sum w_ij (f_ij + s_ij - c_ij).
		var gap float64
		for _, l := range links {
			gap += w[l.ID] * (flow.Total[l.ID] + s[l.ID] - l.Cap)
		}
		finalGap = gap

		if opts.TraceEvery > 0 && k%opts.TraceEvery == 0 {
			trace = append(trace, dualObjective(links, obj, w, s, flow))
		}

		// Tail averages for primal recovery.
		if k >= avgFrom {
			avgCount++
			for e := range w {
				wSum[e] += w[e]
			}
			for i, row := range flowRows {
				dst := sumRows[i]
				for e, x := range row {
					dst[e] += x
				}
			}
			if math.Abs(gap) <= opts.Tol*(1+math.Abs(dualObjective(links, obj, w, s, flow))) {
				break
			}
		}

		// Projected subgradient step (Eq. 16).
		gamma := gamma0
		if opts.Mode == StepDiminishing {
			gamma = gamma0 / math.Sqrt(float64(k+1))
		}
		for _, l := range links {
			w[l.ID] = math.Max(w[l.ID]-gamma*(l.Cap-flow.Total[l.ID]-s[l.ID]), wFloor)
		}
	}

	if avgCount == 0 {
		return nil, fmt.Errorf("core: algorithm 1 performed no averaged iterations (MaxIters=%d)", opts.MaxIters)
	}
	res := &FirstWeightResult{
		W:         make([]float64, len(links)),
		WDual:     make([]float64, len(links)),
		Budget:    make([]float64, len(links)),
		Spare:     make([]float64, len(links)),
		SpareDual: make([]float64, len(links)),
		DualTrace: trace,
		Iters:     iters,
		Gap:       finalGap,
	}
	for e := range wSum {
		res.WDual[e] = wSum[e] / float64(avgCount)
	}
	for _, row := range sumRows {
		for e := range row {
			row[e] /= float64(avgCount)
		}
	}
	flowSum.RecomputeTotal()
	res.Flow = flowSum

	if !opts.NoRefine {
		// Primal refinement: polish the averaged flow to the exact convex
		// optimum and read the weights off Theorem 3.1's formula. The
		// beta=0 objective is linear (Frank-Wolfe cannot redistribute
		// around saturated links), so it refines via the capacitated
		// minimum-cost MCF LP of paper Eq. (9) instead.
		if obj.Beta() == 0 {
			q := make([]float64, len(links))
			for e := range q {
				q[e] = obj.Q(e)
			}
			lpFlow, _, err := mcf.MinCostMCF(g, tm, q)
			if err != nil {
				return nil, fmt.Errorf("core: primal refinement (beta=0 LP): %w", err)
			}
			res.Flow = lpFlow
		} else {
			fw, err := mcf.FrankWolfeContinuation(ctx, g, tm, obj, mcf.FWOptions{
				MaxIters: 2000,
				RelGap:   1e-9,
				Init:     flowSum,
			})
			if err != nil {
				return nil, fmt.Errorf("core: primal refinement: %w", err)
			}
			res.Flow = fw.Flow
		}
	}
	for _, l := range links {
		res.Budget[l.ID] = res.Flow.Total[l.ID]
		res.Spare[l.ID] = l.Cap - res.Budget[l.ID]
		res.SpareDual[l.ID] = obj.LinkSpare(l.ID, res.WDual[l.ID], l.Cap)
		switch {
		case opts.NoRefine:
			res.W[l.ID] = res.WDual[l.ID]
		case obj.Beta() == 0:
			// beta=0 duals are degenerate: V' = q everywhere, so the
			// explicit formula cannot price capacity-forced detours. The
			// averaged subgradient weights approximate the true LP duals
			// (paper Example 3: w = q on unsaturated, w >= q on
			// saturated links).
			res.W[l.ID] = res.WDual[l.ID]
		default:
			// Theorem 3.1's explicit weights. Clamp the spare away from
			// zero: Vp explodes on saturated links (only reachable for
			// beta < 1, where flow may touch capacity).
			res.W[l.ID] = obj.Vp(l.ID, math.Max(res.Spare[l.ID], 1e-9*l.Cap))
		}
	}
	return res, nil
}

// dualObjective evaluates the Lagrangian dual of TE(V,G,c,D) at w with
// the per-link maximizers s and the shortest-path routing flow:
//
//	d(w) = sum_e [V(s_e) - w_e s_e + w_e c_e] - sum_e w_e f_e,
//
// where the last term equals the minimum routing cost because the flow
// is all-or-nothing on shortest paths. Plotted in Fig. 12(a). links is
// the caller's copy of the link table: the check runs every averaged
// iteration, so it must not copy the table itself.
func dualObjective(links []graph.Link, obj *objective.QBeta, w, s []float64, flow *mcf.Flow) float64 {
	var d float64
	for _, l := range links {
		d += obj.V(l.ID, s[l.ID]) - w[l.ID]*s[l.ID] + w[l.ID]*l.Cap - w[l.ID]*flow.Total[l.ID]
	}
	return d
}
