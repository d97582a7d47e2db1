package spef

import (
	"context"

	"repro/internal/core"
	"repro/internal/mcf"
	"repro/internal/netsim"
	"repro/internal/objective"
	"repro/internal/routing"
)

// Progress reports optimization progress from inside the SPEF pipeline.
type Progress struct {
	// Stage names the running stage: StageFirstWeights (Algorithm 1) or
	// StageSecondWeights (Algorithm 2).
	Stage string
	// Iteration and MaxIterations locate the stage's progress.
	Iteration     int
	MaxIterations int
}

// Stage names reported through WithProgress.
const (
	StageFirstWeights  = "first-weights"  // Algorithm 1 (subgradient)
	StageSecondWeights = "second-weights" // Algorithm 2 (NEM gradient)
)

// options collects the resolved functional options of Optimize and the
// Router constructors. The defaults are the paper's: beta = 1
// (proportional load balance), q = 1 on every link, and automatic
// iteration budgets. The shortest-path DAGs always use the paper's
// automatic equal-cost tolerance (see core.BuildWithWeights).
type options struct {
	beta            float64
	q               []float64
	maxIterations   int
	splitIterations int
	progress        func(Progress)
}

func resolveOptions(opts []Option) options {
	o := options{beta: 1}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// coreOptions translates the resolved options into the internal
// pipeline configuration.
func (o options) coreOptions() core.Options {
	c := core.Options{
		First:  core.FirstWeightOptions{MaxIters: o.maxIterations, Progress: o.stageProgress(StageFirstWeights)},
		Second: core.SecondWeightOptions{MaxIters: o.splitIterations, Progress: o.stageProgress(StageSecondWeights)},
	}
	return c
}

func (o options) stageProgress(stage string) func(iter, max int) {
	if o.progress == nil {
		return nil
	}
	fn := o.progress
	return func(iter, max int) {
		fn(Progress{Stage: stage, Iteration: iter, MaxIterations: max})
	}
}

// objective is the (q, beta) objective on n, with q read through
// n.linkVector.
func (o options) objective(n *Network) (*objective.QBeta, error) {
	obj, err := objective.NewQBeta(o.beta, n.NumLinks(), n.linkVector(o.q))
	return obj, asBadInput(err)
}

// Option tunes Optimize and the optimizing Router constructors (SPEF,
// PEFT, Optimal).
type Option func(*options)

// WithBeta sets the load-balance exponent of the (q, beta) objective.
// beta = 0 minimizes total carried traffic, beta = 1 (the default) is
// proportional load balance, and growing beta approaches min-max load
// balance.
func WithBeta(beta float64) Option {
	return func(o *options) { o.beta = beta }
}

// WithQ supplies per-link objective coefficients (default: 1 on every
// link), indexed by link ID. On a Network.WithoutLinks copy, such as a
// Grid's failure cell, a q of the parent's length is projected onto the
// surviving links, and a q of the copy's own length is read as it is.
func WithQ(q []float64) Option {
	return func(o *options) { o.q = q }
}

// WithMaxIterations bounds Algorithm 1's subgradient phase (default:
// the pipeline's automatic budget).
func WithMaxIterations(n int) Option {
	return func(o *options) { o.maxIterations = n }
}

// WithSplitIterations bounds Algorithm 2's NEM gradient phase (default:
// the pipeline's automatic budget).
func WithSplitIterations(n int) Option {
	return func(o *options) { o.splitIterations = n }
}

// WithProgress installs a progress callback invoked once per iteration
// of each optimization stage. The callback runs on the optimizing
// goroutine; use it for reporting and for driving external cancellation
// decisions, not for heavy work.
func WithProgress(fn func(Progress)) Option {
	return func(o *options) { o.progress = fn }
}

// Protocol is an optimized SPEF routing state for one network and
// demand set: two weights per link plus per-destination split ratios.
type Protocol struct {
	net *Network
	p   *core.Protocol
}

// Optimize runs the full SPEF pipeline (the paper's Algorithm 4):
// Algorithm 1 computes the first (optimal) link weights and the optimal
// traffic distribution, Dijkstra builds the equal-cost DAGs, and
// Algorithm 2 computes the second link weights realizing the optimum by
// exponential splitting. Cancelling ctx aborts whichever stage is
// running with an error wrapping the context's error.
func Optimize(ctx context.Context, n *Network, d *Demands, opts ...Option) (*Protocol, error) {
	if err := checkDemands(n, d); err != nil {
		return nil, err
	}
	o := resolveOptions(opts)
	obj, err := o.objective(n)
	if err != nil {
		return nil, err
	}
	p, err := core.Build(ctx, n.g, d.m, obj, o.coreOptions())
	if err != nil {
		return nil, asBadInput(err)
	}
	return &Protocol{net: n, p: p}, nil
}

// Routes returns the uniform routing view of the optimized protocol —
// the same object a SPEF Router produces.
func (p *Protocol) Routes() *Routes {
	return &Routes{
		router:   routerNameSPEF,
		net:      p.net,
		dags:     p.p.DAGs,
		splits:   p.p.Splits,
		protocol: p,
	}
}

// FirstWeights returns the first (optimal) link weight vector.
func (p *Protocol) FirstWeights() []float64 {
	return append([]float64(nil), p.p.W...)
}

// SecondWeights returns the second link weight vector (the "one more
// weight" driving the exponential split).
func (p *Protocol) SecondWeights() []float64 {
	return append([]float64(nil), p.p.V...)
}

// IntegerFirstWeights returns the first weights rounded to the integers
// an OSPF implementation can carry (Section V-G), together with the
// normalization scale.
func (p *Protocol) IntegerFirstWeights() ([]float64, float64, error) {
	w, scale, err := core.IntegerWeights(p.p.First.W, p.p.First.Spare)
	return w, scale, asBadInput(err)
}

// SplitRatios returns, for the given destination, the fraction of
// traffic each link's tail forwards over it (Eq. 22). Indexed by link
// ID; links outside the destination's shortest-path DAG carry 0.
func (p *Protocol) SplitRatios(dst int) ([]float64, error) { return p.Routes().SplitRatios(dst) }

// EqualCostPaths returns the number of equal-cost shortest paths SPEF
// uses between the pair (the paper's Table V statistic).
func (p *Protocol) EqualCostPaths(src, dst int) (int, error) {
	return p.Routes().EqualCostPaths(src, dst)
}

// ForwardingEntry is one next hop of a forwarding table: the equal-cost
// next hop, the second-weight lengths of the shortest paths through it,
// and its traffic share.
type ForwardingEntry struct {
	Link        int
	NextHop     int
	PathLengths []float64
	Ratio       float64
}

// ForwardingTable is the SPEF forwarding state of one (node,
// destination) pair — the paper's Table II.
type ForwardingTable struct {
	Node    int
	Dst     int
	Entries []ForwardingEntry
}

// ForwardingTable renders the forwarding state of a node toward a
// destination.
func (p *Protocol) ForwardingTable(node, dst int) (*ForwardingTable, error) {
	ft, err := p.p.ForwardingTable(node, dst)
	if err != nil {
		return nil, asBadInput(err)
	}
	out := &ForwardingTable{Node: ft.Node, Dst: ft.Dst}
	for _, e := range ft.Entries {
		out.Entries = append(out.Entries, ForwardingEntry{
			Link:        e.Link,
			NextHop:     e.NextHop,
			PathLengths: append([]float64(nil), e.PathLengths...),
			Ratio:       e.Ratio,
		})
	}
	return out, nil
}

// TrafficReport summarizes a routing outcome on a network.
type TrafficReport struct {
	// LinkFlow is the per-link carried volume.
	LinkFlow []float64
	// LinkUtilization is LinkFlow over capacity.
	LinkUtilization []float64
	// MLU is the maximum link utilization.
	MLU float64
	// Utility is the normalized utility sum log(1 - u) of the paper's
	// Fig. 10 (-Inf when MLU >= 1).
	Utility float64
}

func reportFor(n *Network, total []float64) *TrafficReport {
	return &TrafficReport{
		LinkFlow:        append([]float64(nil), total...),
		LinkUtilization: objective.Utilizations(n.g, total),
		MLU:             objective.MLU(n.g, total),
		Utility:         objective.LogSpareUtility(n.g, total),
	}
}

// Evaluate computes the deterministic traffic distribution SPEF induces
// for the demands (destinations must be covered by the optimized state).
func (p *Protocol) Evaluate(d *Demands) (*TrafficReport, error) { return p.Routes().Evaluate(d) }

// InvCapWeights returns Cisco-style inverse-capacity OSPF weights for
// the network, normalized so the largest link gets weight 1 — the
// baseline weight setting of the paper's evaluation.
func InvCapWeights(n *Network) []float64 {
	return routing.InvCapWeights(n.g)
}

// MinMLU returns the minimum achievable maximum link utilization for the
// demands (an LP bound; intended for small and medium networks).
func MinMLU(n *Network, d *Demands) (float64, error) {
	if err := checkDemands(n, d); err != nil {
		return 0, err
	}
	r, err := mcf.MinMLU(n.g, d.m)
	if err != nil {
		return 0, err
	}
	return r.MLU, nil
}

// SimulationConfig tunes packet-level simulation.
type SimulationConfig struct {
	// CapacityBitsPerUnit converts one unit of link capacity into a bit
	// rate (e.g. 1e6 simulates a capacity-5 link at 5 Mb/s). Required.
	CapacityBitsPerUnit float64
	// DurationSeconds is the simulated time (0 = 400 s, the paper's run).
	DurationSeconds float64
	// PacketBits is the packet size (0 = 12000 bits).
	PacketBits float64
	// FlowsPerDemand selects forwarding granularity: 0 samples a next
	// hop per packet; k > 0 hashes packets onto k flows per demand and
	// pins each flow's path (real ECMP semantics, no intra-flow
	// reordering).
	FlowsPerDemand int
	// Seed drives arrivals and per-packet next-hop sampling.
	Seed int64
}

// SimulationReport is a packet-level measurement.
type SimulationReport struct {
	// LinkLoadBits is the mean per-link load in bits/second.
	LinkLoadBits []float64
	// LinkUtilization is load over the link's simulated bit rate.
	LinkUtilization []float64
	// Generated, Delivered and Dropped count packets.
	Generated, Delivered, Dropped int
	// AvgDelaySeconds is the mean end-to-end packet delay.
	AvgDelaySeconds float64
}

func simReport(r *netsim.Result) *SimulationReport {
	return &SimulationReport{
		LinkLoadBits:    r.LinkLoad,
		LinkUtilization: r.LinkUtilization,
		Generated:       r.Generated,
		Delivered:       r.Delivered,
		Dropped:         r.Dropped,
		AvgDelaySeconds: r.AvgDelaySeconds,
	}
}

// Simulate runs the packet-level simulator with SPEF's forwarding state
// (per-packet probabilistic next hops drawn from the split ratios).
func (p *Protocol) Simulate(d *Demands, cfg SimulationConfig) (*SimulationReport, error) {
	return p.Routes().Simulate(d, cfg)
}

func simulateSplits(n *Network, d *Demands, splits map[int][]float64, cfg SimulationConfig) (*SimulationReport, error) {
	r, err := netsim.Run(netsim.Config{
		G:              n.g,
		CapacityUnit:   cfg.CapacityBitsPerUnit,
		Demands:        d.m.Demands(),
		Splits:         splits,
		PacketBits:     cfg.PacketBits,
		Duration:       cfg.DurationSeconds,
		FlowsPerDemand: cfg.FlowsPerDemand,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, asBadInput(err)
	}
	return simReport(r), nil
}
