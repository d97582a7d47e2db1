package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	spef "repro"
	"repro/internal/core"
	"repro/internal/explicit"
	"repro/internal/graph"
	"repro/internal/localsearch"
	"repro/internal/mcf"
	"repro/internal/objective"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// ladderSize fixes the ladder workload's inputs.
type ladderSize struct {
	topology string
	lsIters  int // local-search evaluations of the ospf-ls, sr and mpls-ksp rungs
	optIters int // iteration budget of the spef and optimal rungs
	pool     int
}

func (c config) ladderSize() ladderSize {
	if c.quick {
		return ladderSize{topology: "abilene", lsIters: 50, optIters: 10, pool: quickOps}
	}
	return ladderSize{topology: "rand:n=20,links=80,seed=1", lsIters: 2000, optIters: 40, pool: 64}
}

// rungs are the six ladder routers in suite order; the traced run
// decomposes each by its index.
const (
	rungInvCap = iota
	rungOSPFLS
	rungSPEF
	rungSR
	rungMPLS
	rungOptimal
	numRungs
)

var rungSpans = [numRungs]string{"cell.invcap", "cell.ospf_ls", "cell.spef", "cell.sr", "cell.mpls_ksp", "cell.optimal"}

// routers resolves the six rungs' router specs.
func (sz ladderSize) routers() ([]spef.Router, error) {
	ls, opt := strconv.Itoa(sz.lsIters), strconv.Itoa(sz.optIters)
	specs := [numRungs]string{
		rungInvCap:  "invcap",
		rungOSPFLS:  "ospf-ls:iters=" + ls,
		rungSPEF:    "spef:iters=" + opt,
		rungSR:      "sr:iters=" + ls,
		rungMPLS:    "mpls-ksp:iters=" + ls + ",colgen=on",
		rungOptimal: "optimal:iters=" + opt,
	}
	routers := make([]spef.Router, numRungs)
	for i, spec := range specs {
		var err error
		if routers[i], err = spef.ResolveRouter(spec, 0); err != nil {
			return nil, err
		}
	}
	return routers, nil
}

// ladderInput is one resolved ladder: its six cells and run options.
type ladderInput struct {
	cells []spef.Scenario
	opts  spef.RunOptions
	in    layerInput
}

// runLadder times one six-rung optimality ladder (invcap, ospf-ls,
// spef, sr, mpls-ksp with column generation, optimal) through
// spef.RunScenarios on fresh gravity matrices. Traced, every rung is
// decomposed into the layer calls its Router.Routes makes.
func runLadder(ctx context.Context, r *run) error {
	sz := r.ladderSize()
	var inputs []ladderInput
	err := r.timeSetup(func() error {
		t, err := spef.ResolveTopology(sz.topology)
		if err != nil {
			return err
		}
		routers, err := sz.routers()
		if err != nil {
			return err
		}
		metrics, err := spef.MetricsByName("mlu", "utility", "fortz_norm")
		if err != nil {
			return err
		}
		// One worker keeps every rung on the critical path.
		opts := spef.RunOptions{Workers: 1, Metrics: metrics}
		inputs = inputs[:0]
		for _, s := range inputSeeds(r.seed, sz.pool) {
			d, err := gravityDemands(ctx, t.Network, s)
			if err != nil {
				return err
			}
			grid := spef.Grid{Topologies: []spef.Topology{{Name: t.Name, Network: t.Network, Demands: d}}, Routers: routers}
			cells, err := grid.Scenarios()
			if err != nil {
				return err
			}
			li := ladderInput{cells: cells, opts: opts}
			if r.trace {
				if li.in, err = newLayerInput(cells[0].Network, cells[0].Demands); err != nil {
					return err
				}
			}
			inputs = append(inputs, li)
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}

	untraced := func(li ladderInput) ([]string, error) {
		res, err := spef.RunScenarios(ctx, li.cells, li.opts)
		if err != nil {
			return nil, err
		}
		var out []string
		var mlu [numRungs]float64
		for i, c := range res {
			if c.Err != nil {
				return nil, fmt.Errorf("cell %s: %w", c.Scenario, c.Err)
			}
			mlu[i] = c.MLU()
			for _, m := range li.opts.Metrics {
				v, _ := c.Metric(m.Name())
				out = append(out, fbits(v))
			}
		}
		// The explicit-path rungs start from the ospf-ls weights and
		// accept only improvements. InvCap is not in the chain: at light
		// load the Fortz-Thorup search may raise MLU above InvCap's.
		const tol = 1e-9
		if mlu[rungSR] > mlu[rungOSPFLS]+tol || mlu[rungMPLS] > mlu[rungSR]+tol {
			return nil, fmt.Errorf("ladder order broken: ospf-ls %v, sr %v, mpls-ksp %v", mlu[rungOSPFLS], mlu[rungSR], mlu[rungMPLS])
		}
		return out, nil
	}
	if _, err := untraced(inputs[0]); err != nil { // warm-up
		return fmt.Errorf("warm-up: %w", err)
	}

	elapsed := r.loop(func(i int) error {
		li := inputs[i%len(inputs)]
		key := strconv.Itoa(i % len(inputs))
		if !r.trace {
			start := time.Now()
			out, err := untraced(li)
			r.lat = append(r.lat, time.Since(start))
			if err != nil {
				return err
			}
			r.output(key, out...)
			return nil
		}
		var out, tout []string
		err := r.timedOp(func() error {
			var err error
			out, err = untraced(li)
			return err
		}, func() error {
			var err error
			tout, err = ladderTraced(ctx, r, sz, li.in)
			return err
		})
		if err != nil {
			return err
		}
		r.output(key, out...)
		r.same("ladder", out, tout)
		return nil
	})
	r.tailQ = 0.8
	r.work, r.workTime = float64(numRungs*r.attempted), elapsed
	if r.trace {
		if calls := r.counts["localsearch.search_calls"]; calls > 0 {
			r.set["localsearch.useful_frac"] = r.counts["localsearch.distinct"] / calls
		}
	}
	return nil
}

// ladderTraced runs the six cells as runScenario does (Routes, then
// Evaluate and the metrics), each Routes decomposed as the public
// routers compose it.
func ladderTraced(ctx context.Context, r *run, sz ladderSize, in layerInput) ([]string, error) {
	var out []string
	err := r.rec.op("ladder", func(root int) error {
		searches := map[string]bool{} // distinct local searches of this ladder
		for rung := 0; rung < numRungs; rung++ {
			var vals []string
			cellID := r.rec.begin(rungSpans[rung], root)
			routes, err := ladderRoutes(ctx, r, cellID, sz, in, rung, searches)
			if err == nil {
				err = r.rec.in(cellID, "scenario.evaluate", func() error {
					var err error
					vals, err = routes.evaluate(in)
					return err
				})
			}
			r.rec.end(cellID)
			if err != nil {
				return fmt.Errorf("%s: %w", rungSpans[rung], err)
			}
			out = append(out, vals...)
		}
		r.count("localsearch.distinct", float64(len(searches)))
		return nil
	})
	return out, err
}

// tracedRoutes is a rung's forwarding outcome: DAG-backed (ECMP, SPEF)
// or flow-backed (explicit paths, optimal), as in the public Routes.
type tracedRoutes struct {
	dags   map[int]*graph.DAG
	splits map[int][]float64
	flow   *mcf.Flow
	dem    *traffic.Matrix // the flow-backed routes' copy of the demands
}

// evaluate is Routes.Evaluate followed by the mlu, utility and
// fortz_norm metrics.
func (t tracedRoutes) evaluate(in layerInput) ([]string, error) {
	total := []float64(nil)
	if t.flow != nil {
		if !sameMatrix(t.dem, in.tm) {
			return nil, fmt.Errorf("flow-backed routes evaluated on other demands")
		}
		total = t.flow.Total
	} else {
		flow, err := propagate(in.g, t.dags, t.splits, in.tm)
		if err != nil {
			return nil, err
		}
		total = flow.Total
	}
	rep := reportOf(in.g, total)
	fn, err := fortzNorm(in.g, in.tm, rep)
	if err != nil {
		return nil, err
	}
	return []string{fbits(rep.mlu), fbits(rep.utility), fbits(fn)}, nil
}

// sameMatrix is the exact comparison the public optimal-routes guard
// falls through to when the fingerprints match.
func sameMatrix(a, b *traffic.Matrix) bool {
	if a.Size() != b.Size() || !a.Fingerprint().Matches(b.Fingerprint(), 1e-12) {
		return false
	}
	for s := 0; s < a.Size(); s++ {
		for t := 0; t < a.Size(); t++ {
			if a.At(s, t) != b.At(s, t) {
				return false
			}
		}
	}
	return true
}

// flowRoutes wraps a flow as the public explicitRoutes and the optimal
// router do.
func flowRoutes(in layerInput, flow *mcf.Flow) tracedRoutes {
	return tracedRoutes{splits: flowSplits(in.g, flow), flow: flow, dem: in.tm.Clone()}
}

// ladderRoutes is Router.Routes of one rung, decomposed.
func ladderRoutes(ctx context.Context, r *run, cell int, sz ladderSize, in layerInput, rung int, searches map[string]bool) (tracedRoutes, error) {
	g, tm := in.g, in.tm
	// search is the Fortz-Thorup local search the ospf-ls rung runs and
	// the explicit-path rungs repeat for their base weights.
	search := func() ([]float64, error) {
		var res *localsearch.Result
		err := r.rec.in(cell, "localsearch.search", func() error {
			var err error
			res, err = localsearch.Search(ctx, g, tm, localsearch.Options{
				MaxEvals:    sz.lsIters,
				InitWeights: routing.InvCapWeights(g),
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		r.count("localsearch.search_calls", 1)
		r.count("localsearch.evals", float64(res.Evals))
		searches[digest(res.Weights)] = true
		return res.Weights, nil
	}
	unitFlows := func(w []float64) (*explicit.UnitFlows, error) {
		var uf *explicit.UnitFlows
		err := r.rec.in(cell, "explicit.unit_flows", func() error {
			var err error
			uf, err = explicit.BuildUnitFlows(g, w, 0)
			return err
		})
		r.count("explicit.unit_flows_calls", 1)
		return uf, err
	}
	twoSegment := func(uf *explicit.UnitFlows) (*explicit.SRResult, error) {
		var sr *explicit.SRResult
		err := r.rec.in(cell, "explicit.two_segment", func() error {
			var err error
			sr, err = explicit.TwoSegmentOpt(ctx, uf, tm, explicit.SROptions{Segments: 2})
			return err
		})
		if err != nil {
			return nil, err
		}
		r.count("explicit.sr_passes", float64(sr.Passes))
		return sr, nil
	}
	ospf := func(w []float64) (tracedRoutes, error) {
		var o *routing.OSPF
		err := r.rec.in(cell, "routing.build_ospf", func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			var err error
			o, err = routing.BuildOSPF(g, tm.Destinations(), w, 0)
			return err
		})
		if err != nil {
			return tracedRoutes{}, err
		}
		return tracedRoutes{dags: o.DAGs, splits: o.Splits}, nil
	}

	switch rung {
	case rungInvCap:
		return ospf(nil)
	case rungOSPFLS:
		w, err := search()
		if err != nil {
			return tracedRoutes{}, err
		}
		return ospf(w)
	case rungSPEF:
		obj, err := objective.NewQBeta(1, g.NumLinks(), nil)
		if err != nil {
			return tracedRoutes{}, err
		}
		var first *core.FirstWeightResult
		if err := r.rec.in(cell, "core.first_weights", func() error {
			first, err = core.FirstWeights(ctx, g, tm, obj, core.FirstWeightOptions{MaxIters: sz.optIters})
			return err
		}); err != nil {
			return tracedRoutes{}, err
		}
		var p *core.Protocol
		if err := r.rec.in(cell, "core.build_with_weights", func() error {
			p, err = core.BuildWithWeights(ctx, g, tm, first.W, first.Flow, 0, core.SecondWeightOptions{})
			return err
		}); err != nil {
			return tracedRoutes{}, err
		}
		r.count("core.alg1_iters", float64(first.Iters))
		r.count("core.alg2_iters", float64(p.Second.Iters))
		return tracedRoutes{dags: p.DAGs, splits: p.Splits}, nil
	case rungSR:
		w, err := search()
		if err != nil {
			return tracedRoutes{}, err
		}
		uf, err := unitFlows(w)
		if err != nil {
			return tracedRoutes{}, err
		}
		sr, err := twoSegment(uf)
		if err != nil {
			return tracedRoutes{}, err
		}
		return flowRoutes(in, sr.Flow), nil
	case rungMPLS:
		w, err := search()
		if err != nil {
			return tracedRoutes{}, err
		}
		uf, err := unitFlows(w)
		if err != nil {
			return tracedRoutes{}, err
		}
		var best *mcf.Flow
		if err := r.rec.in(cell, "explicit.direct_flow", func() error {
			best, err = uf.DirectFlow(tm)
			return err
		}); err != nil {
			return tracedRoutes{}, err
		}
		bestMLU := explicit.MaxUtil(g, best.Total)
		sr, err := twoSegment(uf)
		if err != nil {
			return tracedRoutes{}, err
		}
		if sr.MLU < bestMLU {
			best, bestMLU = sr.Flow, sr.MLU
		}
		var lp *explicit.LPResult
		err = r.rec.in(cell, "explicit.colgen", func() error {
			solver, err := explicit.NewPathLP(g, w, 4)
			if err != nil {
				return err
			}
			lp, err = solver.SolveColGen(ctx, tm)
			return err
		})
		switch {
		case errors.Is(err, explicit.ErrLP):
			// keep the greedy candidate, as the router does
		case err != nil:
			return tracedRoutes{}, err
		default:
			r.count("explicit.colgen_rounds", float64(lp.Rounds))
			r.count("explicit.colgen_paths", float64(lp.Paths))
			if lp.MLU < bestMLU {
				best = lp.Flow
			}
		}
		return flowRoutes(in, best), nil
	case rungOptimal:
		obj, err := objective.NewQBeta(1, g.NumLinks(), nil)
		if err != nil {
			return tracedRoutes{}, err
		}
		var fw *mcf.FWResult
		if err := r.rec.in(cell, "mcf.frank_wolfe", func() error {
			fw, err = mcf.FrankWolfeContinuation(ctx, g, tm, obj, mcf.FWOptions{MaxIters: sz.optIters})
			return err
		}); err != nil {
			return tracedRoutes{}, err
		}
		r.count("mcf.fw_iters", float64(fw.Iters))
		return flowRoutes(in, fw.Flow), nil
	}
	return tracedRoutes{}, fmt.Errorf("no rung %d", rung)
}
