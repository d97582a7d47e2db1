package spef

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/explicit"
	"repro/internal/localsearch"
	"repro/internal/mcf"
	"repro/internal/routing"
)

// Explicit-path router display names.
const (
	routerNameMPLS = "MPLS-kSP"
	routerNameSR   = "SR-%dseg"
)

// Default candidate-path count of the MPLS-kSP router.
const defaultMPLSPaths = 4

// ExplicitOptions tunes the explicit-path routers (MPLSKSP and
// SegmentRouting). Zero values select the documented defaults.
type ExplicitOptions struct {
	// K is MPLS-kSP's candidate-path count per demand (default 4).
	// Ignored by SegmentRouting.
	K int
	// Segments is SegmentRouting's segment budget: 1 keeps demands on
	// their direct shortest paths, 2 (the default) allows one midpoint
	// detour. Ignored by MPLSKSP, which always considers detours.
	Segments int
	// MaxEvals bounds the base-weight local search's candidate
	// evaluations (default 2000). Ignored with InvCapBase.
	MaxEvals int
	// WeightMax is the local search's largest integer weight
	// (>= 1; 0 selects the default 20). Ignored with InvCapBase.
	WeightMax int
	// Seed drives the local search's randomized neighborhood sampling
	// (default 0, matching the registry's "ospf-ls" default
	// trajectory). Ignored with InvCapBase. With the same MaxEvals,
	// WeightMax and Seed as an OSPF-LS router on the same cell, the
	// base search is OSPF-LS's own, and a scenario run computes it
	// once for both.
	Seed int64
	// InvCapBase skips the local search and routes over Cisco InvCap
	// weights — cheaper, and the natural base when comparing against
	// plain InvCap-OSPF rather than OSPF-LS.
	InvCapBase bool
	// ColGen switches MPLSKSP's split LP from the k-path enumeration to
	// column generation: demands start on their shortest path and the
	// restricted master's duals price new paths in via the k-shortest
	// oracle, so the LP optimizes over all simple paths (K then bounds
	// the oracle's scan width per pricing round, not the candidate set).
	// Its MLU is therefore at most the k-path LP's, and it scales to
	// instances where enumerating k paths for every pair is the
	// bottleneck. Ignored by SegmentRouting.
	ColGen bool
}

// explicitSuffix renders the non-default parameterization, e.g.
// "(k=8,base=invcap)"; the documented defaults stay unsuffixed.
func explicitSuffix(parts ...string) string {
	var kept []string
	for _, p := range parts {
		if p != "" {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		return ""
	}
	return "(" + strings.Join(kept, ",") + ")"
}

// baseWeights computes the IGP weight vector the explicit-path schemes
// route on top of: plain InvCap, or the Fortz-Thorup local search with
// the OSPF-LS router's defaults — the ladder contract: under the same
// budget and seed it is the OSPF-LS rung's own search, and inside a
// scenario run the rungs share that one search (see searchWeights). The
// vector is read-only: other cells of the run may hold it too.
func baseWeights(ctx context.Context, n *Network, d *Demands, o ExplicitOptions) ([]float64, error) {
	if o.InvCapBase {
		return routing.InvCapWeights(n.g), nil
	}
	return searchWeights(ctx, n, d, o.searchOptions())
}

func (o ExplicitOptions) searchOptions() localsearch.Options {
	return localsearch.Options{MaxEvals: o.MaxEvals, WeightMax: o.WeightMax, Seed: o.Seed}
}

// searchKey keys the base search; InvCapBase runs none.
func (o ExplicitOptions) searchKey(n *Network, d *Demands) (searchKey, bool) {
	if o.InvCapBase {
		return searchKey{}, false
	}
	return newSearchKey(n, d, o.searchOptions())
}

// explicitRoutes wraps a computed flow as a flow-backed Routes, the
// same shape the Optimal router produces: explicit-path unions need not
// form per-destination DAGs, so evaluation runs off the flow itself.
func explicitRoutes(name string, n *Network, d *Demands, flow *mcf.Flow) *Routes {
	return &Routes{
		router:  name,
		net:     n,
		splits:  flowSplits(n.g, flow),
		flow:    flow,
		demands: d.Clone(),
	}
}

// SegmentRouting returns two-segment routing as a Router: demands
// follow the base weights' ECMP shortest paths, but each demand may be
// detoured through one midpoint (a segment-routing node SID), chosen
// greedily per demand to minimize the maximum link utilization. With
// the default OSPF-LS base this never does worse than OSPF-LS itself —
// detours are only accepted on strict improvement — which is the
// SR-2seg rung of the evaluation ladder.
func SegmentRouting(opts ExplicitOptions) Router { return srRouter{opts: opts} }

type srRouter struct{ opts ExplicitOptions }

func (r srRouter) searchKey(n *Network, d *Demands) (searchKey, bool) {
	return r.opts.searchKey(n, d)
}

func (r srRouter) segments() int {
	if r.opts.Segments == 0 {
		return 2
	}
	return r.opts.Segments
}

func (r srRouter) Name() string {
	var base string
	if r.opts.InvCapBase {
		base = "base=invcap"
	}
	return fmt.Sprintf(routerNameSR, r.segments()) + explicitSuffix(base)
}

func (r srRouter) Routes(ctx context.Context, n *Network, d *Demands) (*Routes, error) {
	if err := checkDemands(n, d); err != nil {
		return nil, err
	}
	w, err := baseWeights(ctx, n, d, r.opts)
	if err != nil {
		return nil, fmt.Errorf("spef: %s: %w", r.Name(), err)
	}
	uf, err := explicit.BuildUnitFlows(n.g, w, 0)
	if err != nil {
		return nil, fmt.Errorf("spef: %s: %w", r.Name(), err)
	}
	sr, err := explicit.TwoSegmentOpt(ctx, uf, d.m, explicit.SROptions{Segments: r.segments()})
	if err != nil {
		return nil, fmt.Errorf("spef: %s: %w", r.Name(), err)
	}
	return explicitRoutes(r.Name(), n, d, sr.Flow), nil
}

// MPLSKSP returns the MPLS-style explicit-path router: per demand it
// splits traffic over the k cheapest simple paths under the base
// weights, with split fractions chosen by a linear program minimizing
// the maximum link utilization. The router returns the best of the
// path LP, the two-segment greedy, and direct ECMP under the same base
// weights — all three are realizable as explicit LSPs, and taking the
// minimum makes MPLS-kSP's MLU never worse than SR-2seg's (the ladder
// rung below the unconstrained optimum).
func MPLSKSP(opts ExplicitOptions) Router { return mplsRouter{opts: opts} }

type mplsRouter struct{ opts ExplicitOptions }

func (r mplsRouter) searchKey(n *Network, d *Demands) (searchKey, bool) {
	return r.opts.searchKey(n, d)
}

func (r mplsRouter) paths() int {
	if r.opts.K == 0 {
		return defaultMPLSPaths
	}
	return r.opts.K
}

func (r mplsRouter) Name() string {
	var k, base string
	if r.paths() != defaultMPLSPaths {
		k = fmt.Sprintf("k=%d", r.paths())
	}
	if r.opts.InvCapBase {
		base = "base=invcap"
	}
	return routerNameMPLS + explicitSuffix(k, base)
}

func (r mplsRouter) Routes(ctx context.Context, n *Network, d *Demands) (*Routes, error) {
	if err := checkDemands(n, d); err != nil {
		return nil, err
	}
	w, err := baseWeights(ctx, n, d, r.opts)
	if err != nil {
		return nil, fmt.Errorf("spef: %s: %w", r.Name(), err)
	}
	uf, err := explicit.BuildUnitFlows(n.g, w, 0)
	if err != nil {
		return nil, fmt.Errorf("spef: %s: %w", r.Name(), err)
	}
	// Candidate 1: direct ECMP (what OSPF forwards under w).
	best, err := uf.DirectFlow(d.m)
	if err != nil {
		return nil, fmt.Errorf("spef: %s: %w", r.Name(), err)
	}
	bestMLU := explicit.MaxUtil(n.g, best.Total)
	// Candidate 2: two-segment greedy detours.
	sr, err := explicit.TwoSegmentOpt(ctx, uf, d.m, explicit.SROptions{Segments: 2})
	if err != nil {
		return nil, fmt.Errorf("spef: %s: %w", r.Name(), err)
	}
	if sr.MLU < bestMLU {
		best, bestMLU = sr.Flow, sr.MLU
	}
	// Candidate 3: the split LP — over k enumerated paths by default,
	// column generation over all simple paths with ColGen. A simplex
	// failure (ErrLP) falls back to the greedy candidates; anything
	// else — bad input, cancellation — propagates.
	solver, err := explicit.NewPathLP(n.g, w, r.paths())
	if err != nil {
		return nil, fmt.Errorf("spef: %s: %w", r.Name(), err)
	}
	var lpRes *explicit.LPResult
	if r.opts.ColGen {
		lpRes, err = solver.SolveColGen(ctx, d.m)
	} else {
		lpRes, err = solver.Solve(ctx, d.m)
	}
	switch {
	case errors.Is(err, explicit.ErrLP):
		// keep the greedy candidate
	case err != nil:
		return nil, fmt.Errorf("spef: %s: %w", r.Name(), err)
	case lpRes.MLU < bestMLU:
		best = lpRes.Flow
	}
	return explicitRoutes(r.Name(), n, d, best), nil
}
