package spef

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/routing"
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

func (r spefRouter) reindexLinks(keep []int) Router {
	if opts, ok := reindexOptions(r.opts, keep); ok {
		return spefRouter{opts: opts}
	}
	return r
}

// reindexOptions projects an option set's per-link q coefficients
// through keep, reporting whether a projection was needed. Appending a
// WithQ overrides the earlier one (last write wins), preserving every
// other option.
func reindexOptions(opts []Option, keep []int) ([]Option, bool) {
	q := resolveOptions(opts).q
	if q == nil {
		return nil, false
	}
	rq := remapLinkVector(q, keep)
	if rq == nil {
		return nil, false
	}
	return append(append([]Option(nil), opts...), WithQ(rq)), true
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

// linkReindexer is implemented by routers carrying per-link
// configuration (explicit weight vectors) indexed by a specific
// topology's link IDs. The Scenario engine's failure variants renumber
// links, so such configuration must be projected onto the survivors —
// the "stale weights" semantics of a real deployment between a failure
// and re-optimization.
type linkReindexer interface {
	// reindexLinks returns a copy of the router with per-link vectors
	// projected through keep (keep[newID] = oldID).
	reindexLinks(keep []int) Router
}

// reindexRouter projects a router's per-link configuration onto a
// failure variant's surviving links when the router carries any.
func reindexRouter(r Router, keep []int) Router {
	if ri, ok := r.(linkReindexer); ok {
		return ri.reindexLinks(keep)
	}
	return r
}

// weightReuser is implemented by optimizing routers whose computed link
// weights can be extracted from a finished Routes and replayed as a
// fixed-weight router. The scenario engine's weight-reuse cache
// (RunOptions.ReuseWeights) optimizes such a router once per
// (topology, failure, router) group and re-simulates the extracted
// weights across the group's load factors.
type weightReuser interface {
	Router
	// reusable reports, without running anything, whether the router
	// actually optimizes weights that reuseFrom can extract. The cache
	// only creates a group — and only ever runs a reference
	// optimization — for routers that return true; fixed-weight
	// variants (PEFT(w)) and wrapped non-optimizers run unchanged.
	reusable() bool
	// reuseFrom returns a fixed-weight router replaying the weights
	// captured in routes, reporting whether extraction succeeded. The
	// returned router keeps the original display name so result rows
	// line up across the load axis.
	reuseFrom(routes *Routes) (Router, bool)
}

func (r spefRouter) reusable() bool { return true }

func (r spefRouter) reuseFrom(routes *Routes) (Router, bool) {
	p := routes.Protocol()
	if p == nil {
		return nil, false
	}
	return Named(r.Name(), SPEFWithWeights(p.FirstWeights(), p.SecondWeights())), true
}

// reusable: only the optimizing form (nil weights) computes anything
// worth caching.
func (r peftRouter) reusable() bool { return r.weights == nil }

func (r peftRouter) reuseFrom(routes *Routes) (Router, bool) {
	if r.weights != nil {
		return nil, false // already fixed: nothing to reuse
	}
	if routes.weights == nil {
		return nil, false
	}
	return Named(r.Name(), PEFT(routes.weights)), true
}

func (n namedRouter) reusable() bool {
	wr, ok := n.r.(weightReuser)
	return ok && wr.reusable()
}

func (n namedRouter) reuseFrom(routes *Routes) (Router, bool) {
	wr, ok := n.r.(weightReuser)
	if !ok {
		return nil, false
	}
	fixed, ok := wr.reuseFrom(routes)
	if !ok {
		return nil, false
	}
	return Named(n.name, fixed), true
}

// remapLinkVector projects an intact-topology per-link vector onto the
// surviving links. Returns nil (leave the router unchanged, so it
// reports its own length error) when the vector does not cover every
// surviving link's original ID.
func remapLinkVector(v []float64, keep []int) []float64 {
	out := make([]float64, len(keep))
	for newID, oldID := range keep {
		if oldID >= len(v) {
			return nil
		}
		out[newID] = v[oldID]
	}
	return out
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

func (n namedRouter) reindexLinks(keep []int) Router {
	return namedRouter{name: n.name, r: reindexRouter(n.r, keep)}
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

func (r ospfRouter) reindexLinks(keep []int) Router {
	if r.weights == nil {
		return r // InvCap derives from the variant's own capacities
	}
	if w := remapLinkVector(r.weights, keep); w != nil {
		return ospfRouter{weights: w}
	}
	return r
}

func (r ospfRouter) Routes(ctx context.Context, n *Network, d *Demands) (*Routes, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("spef: OSPF routes canceled: %w", err)
	}
	o, err := routing.BuildOSPF(n.g, d.m.Destinations(), r.weights, 0)
	if err != nil {
		return nil, asBadInput(err)
	}
	w := r.weights
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

func (r peftRouter) reindexLinks(keep []int) Router {
	out := r
	if r.weights != nil {
		if w := remapLinkVector(r.weights, keep); w != nil {
			out.weights = w
		}
	}
	if opts, ok := reindexOptions(r.opts, keep); ok {
		out.opts = opts
	}
	return out
}

func (r peftRouter) Routes(ctx context.Context, n *Network, d *Demands) (*Routes, error) {
	w := r.weights
	if w == nil {
		o := resolveOptions(r.opts)
		obj, err := o.objective(n.NumLinks())
		if err != nil {
			return nil, err
		}
		first, err := core.FirstWeights(ctx, n.g, d.m, obj, core.FirstWeightOptions{
			MaxIters: o.maxIterations,
			Progress: o.stageProgress(StageFirstWeights),
		})
		if err != nil {
			return nil, err
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
// stay), the robustness study of the paper's conclusion. The grid
// projects both vectors onto each failure variant's surviving links.
func SPEFWithWeights(first, second []float64) Router {
	return spefWeightsRouter{
		w: append([]float64(nil), first...),
		v: append([]float64(nil), second...),
	}
}

type spefWeightsRouter struct{ w, v []float64 }

func (r spefWeightsRouter) Name() string { return routerNameSPEF + "-fixed" }

func (r spefWeightsRouter) reindexLinks(keep []int) Router {
	w := remapLinkVector(r.w, keep)
	v := remapLinkVector(r.v, keep)
	if w == nil || v == nil {
		return r // let Routes report the length mismatch
	}
	return spefWeightsRouter{w: w, v: v}
}

func (r spefWeightsRouter) Routes(ctx context.Context, n *Network, d *Demands) (*Routes, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("spef: fixed-weight routes canceled: %w", err)
	}
	if len(r.w) != n.NumLinks() || len(r.v) != n.NumLinks() {
		return nil, fmt.Errorf("%w: got %d first and %d second weights for %d links",
			ErrBadInput, len(r.w), len(r.v), n.NumLinks())
	}
	// Nothing below checks the second weights, and the exponential
	// split turns a non-finite one into NaN ratios.
	for e, x := range r.v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("%w: link %d has second weight %v", ErrBadInput, e, x)
		}
	}
	// The paper's Dijkstra tolerance: 0.3 in the weight space normalized
	// to the smallest weight (the same rule Optimize applies).
	minW := math.Inf(1)
	for _, x := range r.w {
		if x < minW {
			minW = x
		}
	}
	tol := 0.3 * minW
	if math.IsInf(tol, 0) || math.IsNaN(tol) || tol < 0 {
		tol = 0
	}
	dags, splits, err := routing.Build(n.g, d.m.Destinations(), func(ws *graph.Workspace, t int, ratio []float64) (*graph.DAG, error) {
		dag, err := ws.BuildDAG(n.g, r.w, t, tol)
		if err != nil {
			return nil, err
		}
		split, _ := ws.ExponentialSplits(n.g, dag, r.v)
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
// a destination without forwarding state) or graph.ErrBadWeights (NaN
// or negative weights). Other errors pass through unchanged.
func asBadInput(err error) error {
	if errors.Is(err, routing.ErrBadInput) || errors.Is(err, graph.ErrBadWeights) {
		return fmt.Errorf("%w: %v", ErrBadInput, err)
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

func (r optimalRouter) reindexLinks(keep []int) Router {
	if opts, ok := reindexOptions(r.opts, keep); ok {
		return optimalRouter{opts: opts}
	}
	return r
}

func (r optimalRouter) Routes(ctx context.Context, n *Network, d *Demands) (*Routes, error) {
	o := resolveOptions(r.opts)
	obj, err := o.objective(n.NumLinks())
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
	// these weights on degraded variants via the delta engine.
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
	if r.flow != nil {
		if !r.demands.equals(d) {
			return nil, fmt.Errorf("%w: optimal routes are specific to the demands they were computed for; call Routes again for a new demand set", ErrBadInput)
		}
		return reportFor(r.net, r.flow.Total), nil
	}
	flow, err := routing.Flow(r.net.g, r.dags, r.splits, d.m)
	if err != nil {
		return nil, asBadInput(err)
	}
	return reportFor(r.net, flow.Total), nil
}

// Simulate runs the packet-level simulator with the routes' forwarding
// state: per-packet (or per-flow, with FlowsPerDemand) next hops drawn
// from the split ratios. Like Evaluate, flow-backed routes (the
// optimal reference) only simulate the demand set they were computed
// for — their splits carry no forwarding state for other sources.
func (r *Routes) Simulate(d *Demands, cfg SimulationConfig) (*SimulationReport, error) {
	if r.flow != nil && !r.demands.equals(d) {
		return nil, fmt.Errorf("%w: optimal routes are specific to the demands they were computed for; call Routes again for a new demand set", ErrBadInput)
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
