package spef

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"time"

	"repro/internal/scenario"
	"repro/internal/traffic"
)

// Topology names a network and its base demand matrix for grid
// expansion. Steps optionally replaces the single base matrix with a
// temporal demand sequence (diurnal cycles, burst overlays — see
// ResolveDemandSequence); the grid then expands a time axis per
// topology, and Demands may be nil.
type Topology struct {
	Name    string
	Network *Network
	Demands *Demands
	Steps   []DemandStep
}

// DemandStep is one point of a temporal demand sequence: a labeled
// traffic matrix. Grid expansion turns a Topology's Steps into a time
// axis — one cell per step per load per router — with the Loads axis
// anchored to the sequence's peak step (see Grid.Scenarios).
type DemandStep struct {
	// Label names the step in scenario names ("t00", ...).
	Label string
	// Demands is the step's traffic matrix.
	Demands *Demands
}

// Scenario is one evaluation cell: a router applied to a network and
// demand set. Cells are independent, which is what lets the runner
// execute them concurrently with order-independent results.
type Scenario struct {
	// Name identifies the cell ("Abilene/load=0.14/SPEF", ...).
	Name string
	// Topology is the originating topology's name.
	Topology string
	// Network and Demands are the cell's inputs. Failure variants carry
	// the degraded network; Demands stays the intact topology's matrix
	// (traffic does not shrink because a link died).
	Network *Network
	Demands *Demands
	// Router is the scheme under evaluation.
	Router Router
	// Load is the network load the demands were scaled to (0 = the
	// topology's demands were used as-is). For temporal sequences the
	// load anchors the sequence's peak step; off-peak cells carry the
	// peak-anchored load with their own step's smaller matrix.
	Load float64
	// Step names the temporal demand step ("" = no time axis).
	Step string
	// FailedLink labels the failed unit ("" = intact topology): the
	// duplex pair "A-B" of a single failure, "A-B+C-D" of a dual one,
	// or the SRLG group's name.
	FailedLink string
}

// ScenarioResult is one structured result row of a scenario run: the
// cell's identity plus every configured metric, computed once and
// carried as an ordered map so sinks (JSONL, CSV, table) render
// uniformly.
type ScenarioResult struct {
	// Index is the cell's position in the scenario slice. Streamed
	// results arrive in completion order; sorting by Index restores the
	// deterministic batch order.
	Index int
	// Scenario, Topology, Router, Load, Step and FailedLink echo the
	// cell.
	Scenario   string
	Topology   string
	Router     string
	Load       float64
	Step       string
	FailedLink string
	// MetricNames lists the computed metrics in configuration order;
	// Metrics maps each name to its value (valid when Err is nil).
	MetricNames []string
	Metrics     map[string]float64
	// Runtime is the cell's wall-clock execution time.
	Runtime time.Duration
	// Err records a failed cell (optimization error, canceled context,
	// unroutable demands); the run continues past failed cells. Error
	// is its serializable string form — the representation sinks
	// persist, so results deserialize without Go error values.
	Err   error
	Error string
}

// Metric returns the named metric's value and whether it was computed.
func (r ScenarioResult) Metric(name string) (float64, bool) {
	v, ok := r.Metrics[name]
	return v, ok
}

// MLU returns the "mlu" metric, or NaN when it was not computed.
func (r ScenarioResult) MLU() float64 { return r.metricOrNaN(MetricMLU) }

// Utility returns the "utility" metric, or NaN when it was not
// computed.
func (r ScenarioResult) Utility() float64 { return r.metricOrNaN(MetricUtility) }

func (r ScenarioResult) metricOrNaN(name string) float64 {
	if v, ok := r.Metrics[name]; ok {
		return v
	}
	return math.NaN()
}

// Grid declares a comparison sweep: every combination of topology ×
// load × beta × router, optionally augmented with failure variants of
// each topology. Scenarios expands the grid into concrete cells for
// RunScenarios.
type Grid struct {
	// Topologies lists the networks with their base demand matrices.
	Topologies []Topology
	// Loads rescales each topology's demands to the given network loads
	// (Demands.ScaledToLoad on the intact topology). Empty keeps the
	// base demands unscaled.
	Loads []float64
	// Betas expands every BetaRouter (SPEF, Optimal) into one variant
	// per beta. Empty keeps the routers as configured. Routers that are
	// not beta-configurable appear once regardless.
	Betas []float64
	// Routers lists the schemes under comparison.
	Routers []Router
	// Failures adds failure variants of every topology, selected by a
	// failure-set spec ("single", "dual", "srlg:file=PATH" — see
	// ResolveFailureSet); empty runs the intact topologies only.
	// "single" adds one variant per failed duplex pair; "dual" also
	// adds every unordered pair of duplex-pair failures; "srlg" fails
	// shared-risk groups from a file. Failures that disconnect a
	// demand are skipped: no routing scheme can be compared on them.
	// Each failure variant is a Network.WithoutLinks copy, which
	// projects the routers' intact-ID per-link vectors (the weights of
	// OSPF(w), PEFT(w) and SPEFWithWeights, and WithQ's q) onto its
	// survivors: fixed-weight routers keep their weights, the
	// stale-weight window between failure and re-optimization, and
	// optimizing routers (SPEF, Optimal, PEFT(nil)) re-optimize on each
	// variant.
	Failures string
}

// Scenarios expands the grid into its concrete cells. The expansion is
// deterministic: topologies in order, then loads, then temporal steps
// (when the topology carries a demand sequence), then failure variants
// (intact first), then routers (beta-expanded in Betas order).
//
// For a topology with Steps, each load anchors the sequence's peak:
// the whole sequence is scaled uniformly so its highest-load step hits
// the requested network load, and every other step keeps its relative
// depth — "what the requested load means at the busiest hour". Without
// loads the sequence runs at its native scale.
func (g Grid) Scenarios() ([]Scenario, error) {
	routers := g.expandRouters()
	if len(routers) == 0 {
		return nil, fmt.Errorf("%w: grid has no routers", ErrBadInput)
	}
	if len(g.Topologies) == 0 {
		return nil, fmt.Errorf("%w: grid has no topologies", ErrBadInput)
	}
	loads := g.Loads
	if len(loads) == 0 {
		loads = []float64{0}
	}
	fset, err := ResolveFailureSet(g.Failures)
	if err != nil {
		return nil, err
	}
	var cells []Scenario
	for _, topo := range g.Topologies {
		if topo.Network == nil || (topo.Demands == nil && len(topo.Steps) == 0) {
			return nil, fmt.Errorf("%w: topology %q missing network or demands", ErrBadInput, topo.Name)
		}
		for _, st := range topo.Steps {
			if st.Demands == nil {
				return nil, fmt.Errorf("%w: topology %q step %q has no demands", ErrBadInput, topo.Name, st.Label)
			}
		}
		// Failure variants depend only on the intact topology and the
		// demands' positivity pattern, which load scaling (a positive
		// scalar multiply) preserves — compute them once per topology.
		// For a temporal sequence the union of all steps decides
		// routability, so a failure variant either appears for the whole
		// sequence or not at all.
		variants := []failureVariant{{net: topo.Network}}
		if fset != nil {
			routability := topo.Demands
			if len(topo.Steps) > 0 {
				var err error
				if routability, err = sumSteps(topo.Steps); err != nil {
					return nil, fmt.Errorf("spef: grid topology %q: %w", topo.Name, err)
				}
			}
			fv, err := fset.variants(topo.Network, routability)
			if err != nil {
				return nil, fmt.Errorf("spef: grid topology %q: %w", topo.Name, err)
			}
			variants = append(variants, fv...)
		}
		for _, load := range loads {
			steps, prefix, err := topo.stepsAtLoad(load)
			if err != nil {
				return nil, err
			}
			for _, st := range steps {
				name := prefix
				if st.Label != "" {
					name = fmt.Sprintf("%s/t=%s", prefix, st.Label)
				}
				for _, v := range variants {
					vname := name
					if v.failedLink != "" {
						vname = fmt.Sprintf("%s/fail=%s", name, v.failedLink)
					}
					for _, r := range routers {
						cells = append(cells, Scenario{
							Name:       fmt.Sprintf("%s/%s", vname, r.Name()),
							Topology:   topo.Name,
							Network:    v.net,
							Demands:    st.Demands,
							Router:     r,
							Load:       load,
							Step:       st.Label,
							FailedLink: v.failedLink,
						})
					}
				}
			}
		}
	}
	return cells, nil
}

// stepsAtLoad resolves one (topology, load) pair into the concrete
// demand steps and the scenario-name prefix. A step-less topology
// yields one unlabeled step: its base matrix, load-scaled exactly as
// before the time axis existed. A temporal topology yields every step,
// uniformly scaled so the sequence's peak step carries the requested
// load.
func (t Topology) stepsAtLoad(load float64) ([]DemandStep, string, error) {
	prefix := t.Name
	if load > 0 {
		prefix = fmt.Sprintf("%s/load=%g", t.Name, load)
	}
	if len(t.Steps) == 0 {
		d := t.Demands
		if load > 0 {
			var err error
			if d, err = d.ScaledToLoad(t.Network, load); err != nil {
				return nil, "", fmt.Errorf("spef: grid topology %q load %g: %w", t.Name, load, err)
			}
		}
		return []DemandStep{{Demands: d}}, prefix, nil
	}
	if load <= 0 {
		return t.Steps, prefix, nil
	}
	peak := traffic.PeakLoad(rawSteps(t.Steps), t.Network.g)
	if peak == 0 {
		return nil, "", fmt.Errorf("spef: grid topology %q load %g: temporal sequence is all-zero", t.Name, load)
	}
	out := make([]DemandStep, len(t.Steps))
	for i, st := range t.Steps {
		d, err := st.Demands.Scaled(load / peak)
		if err != nil {
			return nil, "", fmt.Errorf("spef: grid topology %q load %g step %q: %w", t.Name, load, st.Label, err)
		}
		out[i] = DemandStep{Label: st.Label, Demands: d}
	}
	return out, prefix, nil
}

// rawSteps converts the public step representation to the traffic
// package's, sharing the underlying matrices.
func rawSteps(steps []DemandStep) []traffic.Step {
	raw := make([]traffic.Step, len(steps))
	for i, st := range steps {
		raw[i] = traffic.Step{Label: st.Label, M: st.Demands.m}
	}
	return raw
}

// sumSteps accumulates a sequence into one union matrix (positive
// where any step is positive) for failure-routability checks.
func sumSteps(steps []DemandStep) (*Demands, error) {
	m, err := traffic.SumSteps(rawSteps(steps))
	if err != nil {
		return nil, err
	}
	return &Demands{m: m}, nil
}

// expandRouters applies the Betas axis to every beta-configurable
// router.
func (g Grid) expandRouters() []Router {
	if len(g.Betas) == 0 {
		return g.Routers
	}
	var out []Router
	for _, r := range g.Routers {
		br, ok := r.(BetaRouter)
		if !ok {
			out = append(out, r)
			continue
		}
		for _, beta := range g.Betas {
			out = append(out, br.WithBeta(beta))
		}
	}
	return out
}

type failureVariant struct {
	net        *Network
	failedLink string
}

// nodeLabel names a node for scenario labels, falling back to the ID.
func (n *Network) nodeLabel(node int) string {
	if s := n.NodeName(node); s != "" {
		return s
	}
	return fmt.Sprintf("n%d", node)
}

// RunOptions tunes RunScenarios and StreamScenarios.
type RunOptions struct {
	// Workers bounds the number of concurrently executing cells
	// (<= 0 selects GOMAXPROCS). Batch results are identical for any
	// worker count: every cell computes independently and results are
	// collected by cell index. Streamed results arrive in completion
	// order but carry Index for deterministic reordering.
	Workers int
	// Metrics lists the metrics computed per cell (nil selects
	// DefaultMetrics). Order is preserved in results and sinks.
	Metrics []Metric
	// Progress, when non-nil, is called after every completed cell with
	// the completed and total counts. Calls are serialized.
	Progress func(completed, total int)
	// ReuseWeights optimizes each (topology, failure variant, router)
	// group's weights once — at the group's first cell, which under
	// Grid expansion is the first load factor and, for a temporal
	// demand sequence, its first step — and re-simulates the extracted
	// fixed weights across the group's remaining cells instead of
	// re-optimizing per load (and per step: the group spans the whole
	// time axis). This is both a large speedup on load sweeps and a
	// different (documented) semantics: every cell of the group reports
	// the performance of the reference cell's weights under its own
	// load and step, the deployed-weights robustness question, rather
	// than per-cell re-optimization. Routers that share a display name
	// but differ in parameters (ospf-ls:iters=5 and ospf-ls:iters=400)
	// form separate groups, told apart by their order in the grid.
	// Routers that carry no extractable optimization (OSPF, Optimal,
	// fixed-weight variants) run unchanged. Results remain
	// deterministic for any worker count.
	//
	// With or without ReuseWeights, a run computes each Fortz-Thorup
	// search that two or more of its cells ask for once: the OSPF-LS,
	// SR and MPLS-kSP routers of one (topology, load, step, failure
	// variant) with the same budget, seed and weight range share one
	// search, and its result is the one each cell would compute alone.
	ReuseWeights bool
}

func (o RunOptions) metrics() []Metric {
	if o.Metrics == nil {
		return DefaultMetrics()
	}
	return o.Metrics
}

// RunScenarios executes every scenario over a bounded worker pool and
// returns one result per scenario, in scenario order regardless of
// completion order or worker count — the deterministic batch path.
// Per-cell failures are recorded in ScenarioResult.Err and do not stop
// the run. Cancelling ctx stops starting new cells and marks unstarted
// ones with the context's error; RunScenarios then returns that error
// alongside the partial results.
func RunScenarios(ctx context.Context, scenarios []Scenario, opts RunOptions) ([]ScenarioResult, error) {
	metrics := opts.metrics()
	store := newRunStore(scenarios, opts.ReuseWeights, nil)
	results := scenario.Run(store.install(ctx), len(scenarios), opts.Workers,
		func(ctx context.Context, i int) ScenarioResult {
			return runScenario(ctx, i, scenarios[i], metrics, store)
		},
		func(i int) ScenarioResult {
			r := resultShell(i, scenarios[i])
			r.setErr(ctx.Err())
			return r
		},
		opts.Progress)
	return results, ctx.Err()
}

// StreamScenarios executes the scenarios like RunScenarios but emits
// each cell's result as it completes instead of buffering the full
// slice: memory stays O(workers) regardless of grid size, which is what
// makes failure grids with thousands of cells persistable through a
// Sink. Results arrive in completion order; sort by Index to recover
// the batch order (values are bit-identical to RunScenarios' for any
// worker count). Breaking out of the iteration cancels the remaining
// cells. After a ctx cancellation, unstarted cells are emitted with the
// context's error, mirroring the batch path.
func StreamScenarios(ctx context.Context, scenarios []Scenario, opts RunOptions) iter.Seq[ScenarioResult] {
	metrics := opts.metrics()
	store := newRunStore(scenarios, opts.ReuseWeights, nil)
	return func(yield func(ScenarioResult) bool) {
		sctx, cancel := context.WithCancel(store.install(ctx))
		defer cancel()
		stop := make(chan struct{})
		ch := make(chan ScenarioResult)
		go func() {
			defer close(ch)
			completed := 0
			scenario.Stream(sctx, len(scenarios), opts.Workers,
				func(ctx context.Context, i int) ScenarioResult {
					return runScenario(ctx, i, scenarios[i], metrics, store)
				},
				func(i int) ScenarioResult {
					r := resultShell(i, scenarios[i])
					r.setErr(sctx.Err())
					return r
				},
				func(i int, r ScenarioResult) {
					completed++
					if opts.Progress != nil {
						opts.Progress(completed, len(scenarios))
					}
					select {
					case ch <- r:
					case <-stop:
					}
				})
		}()
		for r := range ch {
			if !yield(r) {
				cancel()
				close(stop)
				for range ch { // let the workers drain and exit
				}
				return
			}
		}
	}
}

func resultShell(idx int, s Scenario) ScenarioResult {
	return ScenarioResult{
		Index:      idx,
		Scenario:   s.Name,
		Topology:   s.Topology,
		Router:     s.Router.Name(),
		Load:       s.Load,
		Step:       s.Step,
		FailedLink: s.FailedLink,
	}
}

// setErr records a cell failure in both the program-logic form (Err,
// usable with errors.Is) and the serializable string form (Error).
func (r *ScenarioResult) setErr(err error) {
	r.Err = err
	if err != nil {
		r.Error = err.Error()
	}
}

func runScenario(ctx context.Context, idx int, s Scenario, metrics []Metric, store *runStore) ScenarioResult {
	start := time.Now()
	res := resultShell(idx, s)
	router, err := store.router(ctx, idx, s)
	var routes *Routes
	if err == nil {
		routes, err = router.Routes(ctx, s.Network, s.Demands)
	}
	if err == nil {
		var report *TrafficReport
		if report, err = routes.Evaluate(s.Demands); err == nil {
			res.MetricNames = make([]string, 0, len(metrics))
			res.Metrics = make(map[string]float64, len(metrics))
			for _, m := range metrics {
				v, merr := m.Compute(routes, s.Demands, report)
				if merr != nil {
					v = math.NaN()
					err = errors.Join(err, fmt.Errorf("metric %s: %w", m.Name(), merr))
				}
				res.MetricNames = append(res.MetricNames, m.Name())
				res.Metrics[m.Name()] = v
			}
		}
	}
	res.setErr(err)
	res.Runtime = time.Since(start)
	return res
}
