package spef

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/objective"
)

// Metric computes one named figure of merit for a completed scenario
// cell from the routing outcome. The scenario runner evaluates every
// configured metric per cell and records the values in
// ScenarioResult.Metrics; sinks render them column-per-metric.
//
// Implementations must be safe for concurrent use: the runner shares
// one Metric value across its worker pool.
type Metric interface {
	// Name identifies the metric in results and sinks ("mlu", ...).
	Name() string
	// Compute derives the metric value from the cell's routing outcome:
	// the routes the cell's router produced, the demands it routed, and
	// the analytic traffic report of Routes.Evaluate. NaN and +/-Inf
	// are valid values (utility is -Inf past saturation); errors are
	// for metrics that cannot be computed at all.
	Compute(routes *Routes, d *Demands, report *TrafficReport) (float64, error)
}

// Built-in metric names, usable with MetricsByName and
// ScenarioResult.Metric.
const (
	MetricMLU             = "mlu"
	MetricUtility         = "utility"
	MetricMeanUtilization = "mean_util"
	MetricP95Utilization  = "p95_util"
	MetricMM1Delay        = "mm1_delay"
	MetricMaxStretch      = "max_stretch"
	MetricFortz           = "fortz"
	MetricFortzNorm       = "fortz_norm"
	MetricFailMLU         = "fail_mlu"
)

// funcMetric adapts a function to the Metric interface.
type funcMetric struct {
	name string
	fn   func(routes *Routes, d *Demands, report *TrafficReport) (float64, error)
}

func (m funcMetric) Name() string { return m.name }

func (m funcMetric) Compute(routes *Routes, d *Demands, report *TrafficReport) (float64, error) {
	return m.fn(routes, d, report)
}

// MLUMetric returns the maximum link utilization metric — the paper's
// primary congestion measure.
func MLUMetric() Metric {
	return funcMetric{name: MetricMLU, fn: func(_ *Routes, _ *Demands, report *TrafficReport) (float64, error) {
		return report.MLU, nil
	}}
}

// UtilityMetric returns the normalized utility sum log(1-u) of the
// paper's Fig. 10 (-Inf when MLU >= 1).
func UtilityMetric() Metric {
	return funcMetric{name: MetricUtility, fn: func(_ *Routes, _ *Demands, report *TrafficReport) (float64, error) {
		return report.Utility, nil
	}}
}

// MeanUtilizationMetric returns the mean per-link utilization.
func MeanUtilizationMetric() Metric {
	return funcMetric{name: MetricMeanUtilization, fn: func(_ *Routes, _ *Demands, report *TrafficReport) (float64, error) {
		if len(report.LinkUtilization) == 0 {
			return 0, nil
		}
		var sum float64
		for _, u := range report.LinkUtilization {
			sum += u
		}
		return sum / float64(len(report.LinkUtilization)), nil
	}}
}

// UtilizationPercentileMetric returns the p-th percentile (0 < p <= 100,
// nearest-rank) of the per-link utilizations, named "p<p>_util". The
// tail percentiles locate congestion hot-spots that MLU alone (a single
// link) and the mean (diluted by idle links) both miss.
func UtilizationPercentileMetric(p float64) Metric {
	name := fmt.Sprintf("p%s_util", strings.TrimSuffix(fmt.Sprintf("%g", p), ".0"))
	return funcMetric{name: name, fn: func(_ *Routes, _ *Demands, report *TrafficReport) (float64, error) {
		if p <= 0 || p > 100 || math.IsNaN(p) {
			return 0, fmt.Errorf("%w: percentile %v outside (0, 100]", ErrBadInput, p)
		}
		n := len(report.LinkUtilization)
		if n == 0 {
			return 0, nil
		}
		sorted := append([]float64(nil), report.LinkUtilization...)
		sort.Float64s(sorted)
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank < 1 {
			rank = 1
		}
		return sorted[rank-1], nil
	}}
}

// MM1DelayMetric returns the total M/M/1 queueing delay sum f/(c-f)
// over all links (+Inf once any link saturates) — the delay objective
// the paper's beta=1 proportional load balance minimizes, and the
// metric IP-vs-MPLS TE comparisons report.
func MM1DelayMetric() Metric {
	return funcMetric{name: MetricMM1Delay, fn: func(routes *Routes, _ *Demands, report *TrafficReport) (float64, error) {
		var total float64
		n := routes.Network()
		for id, f := range report.LinkFlow {
			_, _, c := n.Link(id)
			if f >= c {
				return math.Inf(1), nil
			}
			total += f / (c - f)
		}
		return total, nil
	}}
}

// FortzCostMetric returns the total Fortz-Thorup congestion cost: the
// sum over links of the piecewise-linear cost Phi of the link's flow
// (objective.FortzThorup, the linearized M/M/1 curve of INFOCOM'00) —
// the objective the ospf-ls local-search routers minimize, so grid
// comparisons can score every scheme by the weight optimizer's own
// yardstick.
func FortzCostMetric() Metric {
	return funcMetric{name: MetricFortz, fn: func(routes *Routes, _ *Demands, report *TrafficReport) (float64, error) {
		return objective.TotalCost(objective.FortzThorup{}, routes.net.g, report.LinkFlow), nil
	}}
}

// NormalizedFortzCostMetric returns the Fortz-Thorup cost scaled by the
// uncapacitated optimum: the total cost divided by the cost of sending
// every demand along hop-count shortest paths over uncongested links
// (slope 1), i.e. sum D(s,t)*minhops(s,t). This is the Phi* presentation
// of Fortz and Thorup's papers — 1.0 means all traffic rides
// hop-shortest paths below a third utilization, values approaching
// 10 2/3 mark the onset of overload — and is comparable across loads
// and topologies where the raw cost is not. +Inf when a positive demand
// has no path; 0 when there is no demand at all.
func NormalizedFortzCostMetric() Metric {
	return funcMetric{name: MetricFortzNorm, fn: func(routes *Routes, d *Demands, report *TrafficReport) (float64, error) {
		g := routes.net.g
		cost := objective.TotalCost(objective.FortzThorup{}, g, report.LinkFlow)
		unit := make([]float64, g.NumLinks())
		for i := range unit {
			unit[i] = 1
		}
		ws := workspaces.Get(g)
		defer workspaces.Put(ws)
		var uncap float64
		for _, t := range d.m.Destinations() {
			sp, err := ws.DijkstraTo(g, unit, t)
			if err != nil {
				return 0, err
			}
			for s := 0; s < g.NumNodes(); s++ {
				v := d.At(s, t)
				if v <= 0 {
					continue
				}
				if sp.Dist[s] == graph.Unreachable {
					return math.Inf(1), nil
				}
				uncap += v * sp.Dist[s]
			}
		}
		if uncap == 0 {
			return 0, nil
		}
		return cost / uncap, nil
	}}
}

// MaxStretchMetric returns the maximum path stretch over destinations:
// for each destination, the volume-weighted mean hop count the routes
// actually traverse divided by the demand-weighted shortest-path hop
// count — 1.0 means every packet rides a hop-shortest path, larger
// values quantify the detours traffic engineering takes to balance
// load. +Inf when a positive demand has no path.
func MaxStretchMetric() Metric {
	return funcMetric{name: MetricMaxStretch, fn: func(routes *Routes, d *Demands, _ *TrafficReport) (float64, error) {
		flow, err := routes.flowFor(d)
		if err != nil {
			return 0, err
		}
		perDest := flow.PerDest
		g := routes.net.g
		unit := make([]float64, g.NumLinks())
		for i := range unit {
			unit[i] = 1
		}
		ws := workspaces.Get(g)
		defer workspaces.Put(ws)
		var worst float64
		for _, t := range d.m.Destinations() {
			ft, ok := perDest[t]
			if !ok {
				return 0, fmt.Errorf("%w: no flow for destination %d", ErrBadInput, t)
			}
			var volHops float64
			for _, f := range ft {
				volHops += f
			}
			sp, err := ws.DijkstraTo(g, unit, t)
			if err != nil {
				return 0, err
			}
			var ideal float64
			for s := 0; s < g.NumNodes(); s++ {
				v := d.At(s, t)
				if v <= 0 {
					continue
				}
				if sp.Dist[s] == graph.Unreachable {
					return math.Inf(1), nil
				}
				ideal += v * sp.Dist[s]
			}
			if ideal <= 0 {
				continue
			}
			if stretch := volHops / ideal; stretch > worst {
				worst = stretch
			}
		}
		return worst, nil
	}}
}

// WorstFailureMLUMetric returns the worst maximum link utilization the
// cell's deployed weights suffer across the intact state and every
// single duplex-pair failure: the largest of the cell's MLU and every
// MLU RankCriticalLinks reports when it re-routes the routes' OSPF/ECMP
// weight vector on the single failures. +Inf when some failure strands
// a positive demand — the regret surface RankCriticalLinks sorts,
// available here as a plain per-cell metric so suite sweeps can
// tabulate it. It requires a single-weight-vector ECMP scheme
// (invcap/ospf, ospf-ls families); schemes without one (spef, peft,
// optimal, explicit paths) cannot be re-routed on a variant from their
// Routes alone and report an error. Cost is one full evaluation per
// duplex pair per cell — an analysis metric, not a default.
func WorstFailureMLUMetric() Metric {
	return funcMetric{name: MetricFailMLU, fn: func(routes *Routes, d *Demands, report *TrafficReport) (float64, error) {
		w := routes.ecmpWeights
		if w == nil {
			return 0, fmt.Errorf("%w: fail_mlu needs OSPF/ECMP weight-backed routes (%s records no single weight vector)", ErrBadInput, routes.router)
		}
		rows, err := RankCriticalLinks(context.TODO(), routes.net, d, CriticalLinksOptions{Weights: w, Workers: 1})
		if err != nil {
			return 0, err
		}
		// Every row, not rows[0]: the rows are sorted by regret, which
		// can round a larger MLU into a tie.
		worst := report.MLU
		for _, r := range rows {
			if r.MLU > worst {
				worst = r.MLU
			}
		}
		return worst, nil
	}}
}

// DefaultMetrics returns the standard metric set the scenario runner
// applies when RunOptions.Metrics is nil: MLU, utility, mean and p95
// utilization, total M/M/1 delay, and max path stretch.
func DefaultMetrics() []Metric {
	return []Metric{
		MLUMetric(),
		UtilityMetric(),
		MeanUtilizationMetric(),
		UtilizationPercentileMetric(95),
		MM1DelayMetric(),
		MaxStretchMetric(),
	}
}

// MetricsByName resolves metric names ("mlu", "utility", "mean_util",
// "p95_util", "mm1_delay", "max_stretch", "fortz", "fortz_norm",
// "fail_mlu", and "p<n>_util" for any percentile) into Metric values —
// the string form Suite specs and command-line flags use.
func MetricsByName(names ...string) ([]Metric, error) {
	out := make([]Metric, 0, len(names))
	for _, name := range names {
		m, err := metricByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// metricSpecs are the named metrics. They take no parameters; the
// "p<n>_util" percentiles beyond p95_util resolve in metricByName.
var metricSpecs = []specEntry[struct{}, Metric]{
	{name: MetricMLU, summary: "Maximum link utilization — the paper's primary congestion measure.", build: metric(MLUMetric)},
	{name: MetricUtility, summary: "Normalized utility sum log(1-u) of Fig. 10; -inf past saturation.", build: metric(UtilityMetric)},
	{name: MetricMeanUtilization, summary: "Mean per-link utilization.", build: metric(MeanUtilizationMetric)},
	{name: MetricP95Utilization, summary: "95th-percentile link utilization (any \"p<n>_util\" percentile resolves).", build: metric(func() Metric { return UtilizationPercentileMetric(95) })},
	{name: MetricMM1Delay, summary: "Total M/M/1 queueing delay sum f/(c-f); +inf once a link saturates.", build: metric(MM1DelayMetric)},
	{name: MetricMaxStretch, summary: "Maximum volume-weighted path stretch over destinations (1.0 = hop-shortest).", build: metric(MaxStretchMetric)},
	{name: MetricFortz, summary: "Total Fortz-Thorup piecewise-linear congestion cost (the ospf-ls objective).", build: metric(FortzCostMetric)},
	{name: MetricFortzNorm, summary: "Fortz-Thorup cost normalized by uncapacitated hop-shortest routing (Phi*; 1.0 = uncongested optimum).", build: metric(NormalizedFortzCostMetric)},
	{name: MetricFailMLU, summary: "Worst MLU of the cell's weights over the intact state and every single duplex-pair failure (+inf when a failure strands demand; OSPF/ECMP weight-backed routers only).", build: metric(WorstFailureMLUMetric)},
}

// metric adapts a metric constructor to a metricSpecs builder.
func metric(m func() Metric) func(*specArgs, struct{}) (Metric, error) {
	return func(*specArgs, struct{}) (Metric, error) { return m(), nil }
}

// metricByName resolves one metric name, lowercased and trimmed like
// every spec name. A "p<n>_util" name resolves only when it is exactly
// the name UtilizationPercentileMetric gives its n, for n in (0, 100].
func metricByName(spec string) (Metric, error) {
	name := strings.ToLower(strings.TrimSpace(spec))
	if e := find(metricSpecs, name); e != nil {
		return e.build(nil, struct{}{})
	}
	if rest, ok := strings.CutPrefix(name, "p"); ok {
		if pct, ok := strings.CutSuffix(rest, "_util"); ok {
			if p, err := strconv.ParseFloat(pct, 64); err == nil && p > 0 && p <= 100 {
				if m := UtilizationPercentileMetric(p); m.Name() == name {
					return m, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("%w: unknown metric %q%s (known: %s)",
		ErrBadInput, spec, suggest(name, names(metricSpecs)), inventory(metricSpecs))
}
