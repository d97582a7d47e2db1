package spef

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/graph"
	"repro/internal/localsearch"
	"repro/internal/mcf"
	"repro/internal/netsim"
	"repro/internal/objective"
	"repro/internal/routing"
	"repro/internal/topoio"
)

// workspaces recycles per-worker graph scratch across the public path
// metrics.
var workspaces graph.WorkspacePool

// Router is the uniform entry point to every routing scheme the paper
// compares: SPEF, ECMP-OSPF, downward PEFT, and the optimal-TE
// reference. Routes computes the scheme's forwarding outcome for one
// network and demand set; the returned Routes evaluates and simulates
// uniformly across schemes, which is what makes grid comparisons (the
// Scenario engine) possible.
//
// Implementations must be safe for concurrent use by multiple
// goroutines: the Scenario runner shares one Router value across its
// worker pool.
type Router interface {
	// Name identifies the scheme (and its parameterization) in results.
	Name() string
	// Routes computes forwarding state for the demands' destinations.
	// Cancelling ctx aborts any optimization in flight with an error
	// wrapping the context's error.
	Routes(ctx context.Context, n *Network, d *Demands) (*Routes, error)
}

// BetaRouter is implemented by Routers whose (q, beta) objective
// exponent can be re-parameterized — SPEF and Optimal. The Scenario
// Grid's Betas axis expands such routers into one variant per beta.
type BetaRouter interface {
	Router
	// WithBeta returns a copy of the router optimizing for the given
	// beta.
	WithBeta(beta float64) Router
}

// Router display names.
const (
	routerNameSPEF    = "SPEF"
	routerNameOSPF    = "OSPF"
	routerNameInvCap  = "InvCap-OSPF"
	routerNamePEFT    = "PEFT"
	routerNameOptimal = "Optimal"
)

// betaSuffix names a beta parameterization; the paper's default beta=1
// stays unsuffixed.
func betaSuffix(name string, beta float64) string {
	if beta == 1 {
		return name
	}
	return fmt.Sprintf("%s(beta=%g)", name, beta)
}

// SPEF returns the paper's protocol as a Router: the full two-weight
// pipeline (Algorithm 4) optimized per demand set with the given
// options. The produced Routes exposes the underlying *Protocol via
// Routes.Protocol for scheme-specific state (weights, forwarding
// tables).
func SPEF(opts ...Option) Router { return spefRouter{opts: opts} }

type spefRouter struct{ opts []Option }

func (r spefRouter) Name() string {
	return betaSuffix(routerNameSPEF, resolveOptions(r.opts).beta)
}

func (r spefRouter) WithBeta(beta float64) Router {
	return spefRouter{opts: append(append([]Option(nil), r.opts...), WithBeta(beta))}
}

func (r spefRouter) Routes(ctx context.Context, n *Network, d *Demands) (*Routes, error) {
	p, err := Optimize(ctx, n, d, r.opts...)
	if err != nil {
		return nil, err
	}
	routes := p.Routes()
	routes.router = r.Name()
	return routes, nil
}

// weightReuser is implemented by optimizing routers whose computed link
// weights can be extracted from a finished Routes (see fixedRouter) and
// replayed as a fixed-weight router. The scenario engine's weight-reuse
// cache (RunOptions.ReuseWeights) optimizes such a router once per
// (topology, failure, router) group and re-simulates the extracted
// weights across the group's load factors.
type weightReuser interface {
	// reusable reports, without running anything, whether the router
	// actually optimizes weights that fixedRouter can extract. The cache
	// only creates a group — and only ever runs a reference
	// optimization — for routers that return true; fixed-weight
	// variants (PEFT(w)) and wrapped non-optimizers run unchanged.
	reusable() bool
}

func (r spefRouter) reusable() bool { return true }

// reusable: only the optimizing form (nil weights) computes anything
// worth caching.
func (r peftRouter) reusable() bool { return r.weights == nil }

func (n namedRouter) reusable() bool {
	wr, ok := n.r.(weightReuser)
	return ok && wr.reusable()
}

func (n namedRouter) searchKey(net *Network, d *Demands) (searchKey, bool) {
	if sk, ok := n.r.(searchKeyer); ok {
		return sk.searchKey(net, d)
	}
	return searchKey{}, false
}

// fixedRouter returns a fixed-weight router replaying the weights the
// routes record: SPEF's two vectors, the ECMP vector of OSPF-LS, or the
// weights an optimizing PEFT computed. It keeps the routes' display name
// so result rows line up across the load axis, and reports false when
// the routes record no weights.
func fixedRouter(routes *Routes) (Router, bool) {
	var fixed Router
	switch {
	case routes.protocol != nil:
		fixed = SPEFWithWeights(routes.protocol.FirstWeights(), routes.protocol.SecondWeights())
	case routes.ecmpWeights != nil:
		fixed = OSPF(routes.ecmpWeights)
	case routes.weights != nil:
		fixed = PEFT(routes.weights)
	default:
		return nil, false
	}
	return Named(routes.router, fixed), true
}

// Named wraps a router with a custom display name — used to
// disambiguate otherwise identically-named routers in scenario grids
// (e.g. two OSPF routers with different weight vectors). The wrapper
// forwards Routes unchanged but is not beta-configurable; apply Named
// after any WithBeta parameterization.
func Named(name string, r Router) Router { return namedRouter{name: name, r: r} }

type namedRouter struct {
	name string
	r    Router
}

func (n namedRouter) Name() string { return n.name }

func (n namedRouter) Routes(ctx context.Context, net *Network, d *Demands) (*Routes, error) {
	routes, err := n.r.Routes(ctx, net, d)
	if err != nil {
		return nil, err
	}
	routes.router = n.name
	return routes, nil
}

// OSPF returns plain OSPF with even ECMP splitting as a Router.
// weights nil selects Cisco-style InvCap weights (the paper's
// baseline). Wrap with Named to distinguish multiple weight settings
// in one grid.
func OSPF(weights []float64) Router { return ospfRouter{weights: weights} }

type ospfRouter struct{ weights []float64 }

func (r ospfRouter) Name() string {
	if r.weights == nil {
		return routerNameInvCap
	}
	return routerNameOSPF
}

func (r ospfRouter) Routes(ctx context.Context, n *Network, d *Demands) (*Routes, error) {
	if err := checkDemands(n, d); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("spef: OSPF routes canceled: %w", err)
	}
	w := n.linkVector(r.weights)
	o, err := routing.BuildOSPF(n.g, d.m.Destinations(), w, 0)
	if err != nil {
		return nil, asBadInput(err)
	}
	if w == nil {
		w = routing.InvCapWeights(n.g)
	}
	return &Routes{
		router:      r.Name(),
		net:         n,
		dags:        o.DAGs,
		splits:      o.Splits,
		ecmpWeights: append([]float64(nil), w...),
	}, nil
}

// PEFT returns downward PEFT (Xu-Chiang-Rexford INFOCOM'08) as a
// Router. weights nil optimizes the link weights with Algorithm 1 under
// the options' (q, beta) objective — the paper's comparison, which
// supplies PEFT with the same optimized first weights as SPEF.
func PEFT(weights []float64, opts ...Option) Router {
	return peftRouter{weights: weights, opts: opts}
}

type peftRouter struct {
	weights []float64
	opts    []Option
}

func (r peftRouter) Name() string {
	if r.weights != nil {
		return routerNamePEFT // explicit weights: options do not apply
	}
	return betaSuffix(routerNamePEFT, resolveOptions(r.opts).beta)
}

func (r peftRouter) Routes(ctx context.Context, n *Network, d *Demands) (*Routes, error) {
	if err := checkDemands(n, d); err != nil {
		return nil, err
	}
	w := n.linkVector(r.weights)
	if w == nil {
		o := resolveOptions(r.opts)
		obj, err := o.objective(n)
		if err != nil {
			return nil, err
		}
		first, err := core.FirstWeights(ctx, n.g, d.m, obj, core.FirstWeightOptions{
			MaxIters: o.maxIterations,
			Progress: o.stageProgress(StageFirstWeights),
		})
		if err != nil {
			return nil, asBadInput(err)
		}
		w = first.W
	}
	p, err := routing.BuildPEFT(n.g, d.m.Destinations(), w)
	if err != nil {
		return nil, asBadInput(err)
	}
	routes := &Routes{router: r.Name(), net: n, dags: p.DAGs, splits: p.Splits}
	if r.weights == nil {
		// Record the optimized weights so the scenario engine's
		// weight-reuse cache can re-simulate them across load factors.
		routes.weights = append([]float64(nil), w...)
	}
	return routes, nil
}

// SPEFWithWeights returns SPEF forwarding under fixed, precomputed
// weights: first (the shortest-path weights) and second (the
// exponential-split weights), both indexed by link ID. No optimization
// runs — every router re-runs Dijkstra under the given first weights
// and splits by the exponential rule under the given second weights.
// This is the deployed state of a SPEF network between events: in a
// failure grid it models the stale-weight window between a link failure
// and re-optimization (routers reconverge on the survivors, weights
// stay), the robustness study of the paper's conclusion. On a
// Network.WithoutLinks copy, a failure cell among them, each vector of
// the parent's length is projected onto the surviving links.
func SPEFWithWeights(first, second []float64) Router {
	return spefWeightsRouter{
		w: append([]float64(nil), first...),
		v: append([]float64(nil), second...),
	}
}

type spefWeightsRouter struct{ w, v []float64 }

func (r spefWeightsRouter) Name() string { return routerNameSPEF + "-fixed" }

func (r spefWeightsRouter) Routes(ctx context.Context, n *Network, d *Demands) (*Routes, error) {
	if err := checkDemands(n, d); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("spef: fixed-weight routes canceled: %w", err)
	}
	w, v := n.linkVector(r.w), n.linkVector(r.v)
	if len(w) != n.NumLinks() || len(v) != n.NumLinks() {
		return nil, fmt.Errorf("%w: got %d first and %d second weights for %d links",
			ErrBadInput, len(w), len(v), n.NumLinks())
	}
	// Nothing below checks the second weights, and the exponential
	// split turns a non-finite one into NaN ratios.
	for e, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("%w: link %d has second weight %v", ErrBadInput, e, x)
		}
	}
	// The paper's Dijkstra tolerance, the rule Optimize applies.
	tol := core.EqualCostTol(w)
	dags, splits, err := routing.Build(n.g, d.m.Destinations(), func(ws *graph.Workspace, t int, ratio []float64) (*graph.DAG, error) {
		dag, err := ws.BuildDAG(n.g, w, t, tol)
		if err != nil {
			return nil, err
		}
		split, _ := ws.ExponentialSplits(n.g, dag, v)
		copy(ratio, split)
		return dag, nil
	})
	if err != nil {
		return nil, asBadInput(err)
	}
	return &Routes{router: r.Name(), net: n, dags: dags, splits: splits}, nil
}

// asBadInput gives the public ErrBadInput sentinel to a lower layer's
// rejection of its arguments: routing.ErrBadInput (wrong-length weights,
// a destination without forwarding state), graph.ErrBadWeights (NaN or
// negative weights), localsearch.ErrBadInput (inconsistent search
// options), core.ErrBadInput (an empty demand set, a destination or
// node without forwarding state), objective.ErrBadObjective (a bad beta
// or q), delta.ErrBadInput (an unknown link or node, a failure that
// strands a demand), netsim.ErrBadConfig (a bad simulation config, a
// destination without split ratios) or topoio.ErrBadFile (a dataset
// file the importers cannot parse). Other errors, mcf.ErrInfeasible
// among them, pass through unchanged.
func asBadInput(err error) error {
	if err == nil {
		return nil
	}
	for _, bad := range []error{
		routing.ErrBadInput, graph.ErrBadWeights, localsearch.ErrBadInput, core.ErrBadInput,
		objective.ErrBadObjective, delta.ErrBadInput, netsim.ErrBadConfig, topoio.ErrBadFile,
	} {
		if errors.Is(err, bad) {
			return fmt.Errorf("%w: %v", ErrBadInput, err)
		}
	}
	return err
}

// Optimal returns the optimal-TE reference as a Router: the
// Frank-Wolfe continuation solver minimizing the options' (q, beta)
// objective over the multi-commodity flow polytope, with no protocol
// realizability constraint. Its Routes carries the optimal per-link
// flow and the split ratios that realize it; Evaluate accepts the
// demand set the routes were computed for.
func Optimal(opts ...Option) Router { return optimalRouter{opts: opts} }

type optimalRouter struct{ opts []Option }

func (r optimalRouter) Name() string {
	return betaSuffix(routerNameOptimal, resolveOptions(r.opts).beta)
}

func (r optimalRouter) WithBeta(beta float64) Router {
	return optimalRouter{opts: append(append([]Option(nil), r.opts...), WithBeta(beta))}
}

func (r optimalRouter) Routes(ctx context.Context, n *Network, d *Demands) (*Routes, error) {
	if err := checkDemands(n, d); err != nil {
		return nil, err
	}
	o := resolveOptions(r.opts)
	obj, err := o.objective(n)
	if err != nil {
		return nil, err
	}
	fw, err := mcf.FrankWolfeContinuation(ctx, n.g, d.m, obj, mcf.FWOptions{MaxIters: o.maxIterations})
	if err != nil {
		return nil, err
	}
	return &Routes{
		router:  r.Name(),
		net:     n,
		splits:  flowSplits(n.g, fw.Flow),
		flow:    fw.Flow,
		demands: d.Clone(),
	}, nil
}

// flowSplits derives per-destination split ratios from a
// destination-aggregated flow: at every node, each out-link's ratio is
// its share of the node's total outflow for that destination.
func flowSplits(g *graph.Graph, flow *mcf.Flow) map[int][]float64 {
	splits := make(map[int][]float64, len(flow.PerDest))
	for t, ft := range flow.PerDest {
		ratio := make([]float64, g.NumLinks())
		for u := 0; u < g.NumNodes(); u++ {
			var out float64
			for _, id := range g.OutLinks(u) {
				out += ft[id]
			}
			if out <= 0 {
				continue
			}
			for _, id := range g.OutLinks(u) {
				ratio[id] = ft[id] / out
			}
		}
		splits[t] = ratio
	}
	return splits
}

// Routes is the uniform routing outcome every Router produces:
// per-destination split ratios over a network, evaluable analytically
// (Evaluate) and by packet-level simulation (Simulate) regardless of
// the scheme that computed them.
type Routes struct {
	router string
	net    *Network
	// splits[t][id] is the fraction of traffic toward destination t
	// that the tail of link id forwards over it.
	splits map[int][]float64
	// dags holds the per-destination forwarding DAGs of protocol-backed
	// routes (SPEF, OSPF, PEFT); nil for flow-backed routes.
	dags map[int]*graph.DAG
	// flow and demands back the optimal reference: the precomputed
	// optimal distribution and the matrix it routes.
	flow    *mcf.Flow
	demands *Demands
	// protocol is the underlying SPEF state when the routes came from
	// the SPEF router.
	protocol *Protocol
	// weights records the link weights the routes forward under when
	// the producing router optimized them itself (PEFT with nil
	// weights) — the vector the scenario engine's weight-reuse cache
	// extracts.
	weights []float64
	// ecmpWeights records the single OSPF/ECMP weight vector the routes
	// forward under, when the scheme is plain shortest-path ECMP (OSPF,
	// InvCap, OSPF-LS). PEFT weights do not qualify — their splits are
	// exponential, not even — so this stays nil for every non-ECMP
	// scheme. Failure analysis (fail_mlu, RankCriticalLinks) re-routes
	// these weights on degraded variants via the delta engine, and the
	// weight-reuse cache replays OSPF-LS's (see fixedRouter).
	ecmpWeights []float64
}

// Router returns the name of the scheme that produced the routes.
func (r *Routes) Router() string { return r.router }

// Network returns the network the routes forward over.
func (r *Routes) Network() *Network { return r.net }

// Protocol returns the underlying SPEF protocol state when the routes
// were produced by the SPEF router (or Protocol.Routes), and nil for
// every other scheme.
func (r *Routes) Protocol() *Protocol { return r.protocol }

// ECMPWeights returns a copy of the single OSPF/ECMP link-weight vector
// the routes forward under, when the scheme is plain shortest-path ECMP
// (OSPF, InvCap, OSPF-LS and variants). It returns nil for every other
// scheme — PEFT's exponential splits and the optimal reference's flow
// solution have no such vector. This is the vector failure analysis
// (fail_mlu, RankCriticalLinks) re-routes on degraded variants.
func (r *Routes) ECMPWeights() []float64 {
	if r.ecmpWeights == nil {
		return nil
	}
	return append([]float64(nil), r.ecmpWeights...)
}

// Destinations lists the destinations the routes carry forwarding state
// for, in increasing order.
func (r *Routes) Destinations() []int {
	out := make([]int, 0, len(r.splits))
	for t := range r.splits {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// EqualCostPaths returns the number of distinct paths from src that
// the forwarding DAG toward dst holds — for OSPF and SPEF the
// equal-cost shortest paths, the n_i statistic of the paper's Table V.
// Flow-backed routes (the optimal reference and the explicit-path
// routers) have no DAG and fail with ErrBadInput, as does a
// destination without forwarding state.
func (r *Routes) EqualCostPaths(src, dst int) (int, error) {
	d, ok := r.dags[dst]
	if !ok {
		return 0, fmt.Errorf("%w: no forwarding DAG toward destination %d", ErrBadInput, dst)
	}
	if src < 0 || src >= r.net.NumNodes() {
		return 0, fmt.Errorf("%w: node %d out of range", ErrBadInput, src)
	}
	return int(math.Round(d.CountPaths(r.net.g)[src])), nil
}

// SplitRatios returns the per-link split ratios toward the destination:
// ratio[id] is the fraction of traffic accumulated at link id's tail
// that the tail forwards over it.
func (r *Routes) SplitRatios(dst int) ([]float64, error) {
	s, ok := r.splits[dst]
	if !ok {
		return nil, fmt.Errorf("%w: no forwarding state for destination %d", ErrBadInput, dst)
	}
	return append([]float64(nil), s...), nil
}

// Evaluate computes the deterministic traffic distribution the routes
// induce for the demands and reports per-link flows, utilizations, MLU
// and utility. Protocol-backed routes evaluate any demand set whose
// destinations are covered; the optimal reference's routes are
// demand-specific and evaluate exactly the demand set they were
// computed for.
func (r *Routes) Evaluate(d *Demands) (*TrafficReport, error) {
	if err := checkDemands(r.net, d); err != nil {
		return nil, err
	}
	flow, err := r.flowFor(d)
	if err != nil {
		return nil, err
	}
	return reportFor(r.net, flow.Total), nil
}

// flowFor returns the traffic distribution the routes induce for d:
// the stored distribution of flow-backed routes, or d propagated down
// the forwarding DAGs.
func (r *Routes) flowFor(d *Demands) (*mcf.Flow, error) {
	if err := r.checkDemandSpecific(d); err != nil {
		return nil, err
	}
	if r.flow != nil {
		return r.flow, nil
	}
	flow, err := routing.Flow(r.net.g, r.dags, r.splits, d.m)
	return flow, asBadInput(err)
}

// checkDemandSpecific rejects, for flow-backed routes, any demand set
// other than the one the routes were computed for: their splits carry
// no forwarding state for other sources or volumes.
func (r *Routes) checkDemandSpecific(d *Demands) error {
	if r.flow != nil && !r.demands.equals(d) {
		return fmt.Errorf("%w: optimal routes are specific to the demands they were computed for; call Routes again for a new demand set", ErrBadInput)
	}
	return nil
}

// Simulate runs the packet-level simulator with the routes' forwarding
// state: per-packet (or per-flow, with FlowsPerDemand) next hops drawn
// from the split ratios. Like Evaluate, flow-backed routes (the
// optimal reference) only simulate the demand set they were computed
// for — their splits carry no forwarding state for other sources.
func (r *Routes) Simulate(d *Demands, cfg SimulationConfig) (*SimulationReport, error) {
	if err := checkDemands(r.net, d); err != nil {
		return nil, err
	}
	if err := r.checkDemandSpecific(d); err != nil {
		return nil, err
	}
	return simulateSplits(r.net, d, r.splits, cfg)
}

// equals reports whether two demand sets carry the same volumes. The
// cached O(n) fingerprint (total + per-destination sums) is checked
// first: a mismatch proves inequality without touching the n^2 entries,
// which is the common case on the optimal-routes guard (every scenario
// cell evaluates against a different load-scaled matrix). Only a
// fingerprint match falls through to the exact scan.
func (d *Demands) equals(o *Demands) bool {
	if d == nil || o == nil {
		return d == o
	}
	if d.m.Size() != o.m.Size() {
		return false
	}
	if d.m == o.m {
		return true
	}
	// The element-wise scan below tolerates relative error 1e-12; with
	// non-negative volumes the induced aggregate drift is bounded by
	// 1e-12 times the sum of the two aggregates, which is exactly what
	// Fingerprint.Matches checks — so a mismatch here is conclusive.
	if !d.m.Fingerprint().Matches(o.m.Fingerprint(), 1e-12) {
		return false
	}
	for s := 0; s < d.m.Size(); s++ {
		for t := 0; t < d.m.Size(); t++ {
			a, b := d.m.At(s, t), o.m.At(s, t)
			if a == b {
				continue
			}
			if math.Abs(a-b) > 1e-12*math.Max(math.Abs(a), math.Abs(b)) {
				return false
			}
		}
	}
	return true
}
