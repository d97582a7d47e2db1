package spef

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/localsearch"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// Local-search router display names.
const (
	routerNameOSPFLS           = "OSPF-LS"
	routerNameOSPFLSRobust     = "OSPF-LS-robust"
	routerNameOSPFLSTabu       = "OSPF-LS-tabu"
	routerNameOSPFLSRobustTabu = "OSPF-LS-robust-tabu"
)

// LocalSearchOptions tunes the OSPFLocalSearch router. Zero values
// select the documented defaults.
type LocalSearchOptions struct {
	// MaxEvals bounds the number of candidate weight-vector evaluations
	// (default 2000).
	MaxEvals int
	// WeightMax is the largest integer weight the search assigns
	// (>= 1; 0 selects the default 20).
	WeightMax int
	// Seed drives the randomized neighborhood sampling (default 0 —
	// the same trajectory the registry's "ospf-ls" spec default runs).
	Seed int64
	// Robust turns on failure-aware scoring: candidate weight vectors
	// are additionally evaluated on every routable single-link-failure
	// variant of the network, and moves are accepted by the combined
	// score — weights tuned to survive any one failure, not just the
	// intact topology.
	Robust bool
	// FailurePenalty is the weight rho of the mean failure-variant cost
	// in the robust score (> 0; 0 selects the default 1). Ignored
	// without Robust.
	FailurePenalty float64
	// SampleFailures, with Robust, caps the number of failure variants
	// scored per candidate: k distinct variants are drawn once per
	// optimization (seeded by SampleSeed, on the coordinating goroutine,
	// so the draw is independent of worker count) from the routable
	// single-failure set, kept in enumeration order, and the robust
	// score averages over the sample. 0 scores every variant; k >= the
	// variant count is bit-identical to exhaustive (the sample becomes
	// the identity selection); negative is an error. Sampling is what
	// lets robust search scale to 100+-link topologies, where the
	// exhaustive variant set multiplies every candidate evaluation by
	// the link count.
	SampleFailures int
	// SampleSeed seeds the failure-variant sample (default 0). Ignored
	// unless Robust is set and SampleFailures > 0.
	SampleSeed int64
	// Accept selects the move-acceptance rule: "" or "hill" for strict
	// hill climbing with plateau perturbations (the Fortz-Thorup
	// default), "tabu" for best-of-round tabu acceptance (see
	// internal/localsearch Options.Accept). Tabu variants carry a
	// "-tabu" name suffix so both rules can share a grid.
	Accept string
	// TabuTenure is the number of rounds a just-changed link stays tabu
	// (0 selects the default 8). Ignored unless Accept is "tabu".
	TabuTenure int
}

// OSPFLocalSearch returns Fortz-Thorup local-search optimized OSPF as a
// Router: for each demand set it searches integer link weights
// minimizing the piecewise-linear Fortz-Thorup congestion cost of
// OSPF/ECMP routing — the canonical weight-tuning baseline the paper's
// "one more weight" claim is measured against — and forwards with even
// ECMP splitting under the best vector found. The search starts from
// InvCap weights, so the optimized configuration is never costlier than
// the deployed Cisco default. The hot loop is incremental: each
// candidate single-weight change re-routes only the destinations it can
// affect (see internal/localsearch), with candidate neighborhoods
// scored in parallel and results identical for any worker count.
func OSPFLocalSearch(opts LocalSearchOptions) Router { return ospfLSRouter{opts: opts} }

type ospfLSRouter struct{ opts LocalSearchOptions }

func (r ospfLSRouter) Name() string {
	switch {
	case r.opts.Robust && r.opts.Accept == "tabu":
		return routerNameOSPFLSRobustTabu
	case r.opts.Robust:
		return routerNameOSPFLSRobust
	case r.opts.Accept == "tabu":
		return routerNameOSPFLSTabu
	}
	return routerNameOSPFLS
}

func (r ospfLSRouter) Routes(ctx context.Context, n *Network, d *Demands) (*Routes, error) {
	if err := checkDemands(n, d); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("spef: %s routes canceled: %w", r.Name(), err)
	}
	if r.opts.SampleFailures < 0 {
		return nil, fmt.Errorf("%w: negative SampleFailures %d", ErrBadInput, r.opts.SampleFailures)
	}
	opts := r.searchOptions()
	if r.opts.Robust {
		// Score candidates against every single-link failure that keeps
		// the demands routable: the scenario engine's failure axis, as
		// link sets on the intact network.
		units, err := singleFailures.routableUnits(n, d)
		if err != nil {
			return nil, err
		}
		for _, u := range units {
			opts.Failures = append(opts.Failures, u.links)
		}
		if r.opts.SampleFailures > 0 {
			opts.Failures = sampleFailures(opts.Failures, r.opts.SampleFailures, r.opts.SampleSeed)
		}
	}
	weights, err := searchWeights(ctx, n, d, opts)
	if err != nil {
		return nil, fmt.Errorf("spef: %s: %w", r.Name(), err)
	}
	routes, err := OSPF(weights).Routes(ctx, n, d)
	if err != nil {
		return nil, err
	}
	routes.router = r.Name()
	return routes, nil
}

// searchOptions maps the router's options onto the search's.
// FailurePenalty passes only with Robust, which it is documented to
// tune. A robust search starts from an empty but non-nil failure list,
// which Routes fills: that keeps it out of any shared store (see
// newSearchKey) even when no failure variant is routable.
func (r ospfLSRouter) searchOptions() localsearch.Options {
	o := localsearch.Options{
		MaxEvals:   r.opts.MaxEvals,
		WeightMax:  r.opts.WeightMax,
		Seed:       r.opts.Seed,
		Accept:     r.opts.Accept,
		TabuTenure: r.opts.TabuTenure,
	}
	if r.opts.Robust {
		o.FailurePenalty = r.opts.FailurePenalty
		o.Failures = [][]int{}
	}
	return o
}

func (r ospfLSRouter) searchKey(n *Network, d *Demands) (searchKey, bool) {
	return newSearchKey(n, d, r.searchOptions())
}

// searchKey identifies a Fortz-Thorup search by everything its result
// depends on: the network's graph and the demand matrix by identity,
// and every localsearch option with its default applied, so options
// that spell a default differently share a search. Every search starts
// from the graph's InvCap weights (see searchWeights), so the graph
// fixes the start as well. Grid expansion hands every router of one
// (topology, load, step, failure variant) the same graph and matrix.
type searchKey struct {
	g                           *graph.Graph
	m                           *traffic.Matrix
	maxEvals, weightMax, tenure int
	seed                        int64
	failurePenalty              float64
	accept                      string
}

// newSearchKey keys the search of o on (n, d). A robust search
// (Failures non-nil) has no key: it is never shared.
func newSearchKey(n *Network, d *Demands, o localsearch.Options) (searchKey, bool) {
	if o.Failures != nil {
		return searchKey{}, false
	}
	k := searchKey{
		g: n.g, m: d.m,
		maxEvals: o.MaxEvals, weightMax: o.WeightMax, tenure: o.TabuTenure,
		seed: o.Seed, failurePenalty: o.FailurePenalty,
		accept: o.Accept,
	}
	// localsearch.Search's defaults, as it applies them; a negative
	// WeightMax stays as it is and fails the search. Options keyed
	// apart that search alike only miss a share.
	if k.maxEvals <= 0 {
		k.maxEvals = 2000
	}
	if k.weightMax == 0 {
		k.weightMax = 20
	}
	return k, true
}

// searchKeyer is implemented by routers whose Routes runs a
// Fortz-Thorup search that a scenario run may share between cells.
type searchKeyer interface {
	// searchKey reports, without running anything, the key of the
	// search Routes would run on (n, d), false when it runs none or
	// one that is never shared.
	searchKey(n *Network, d *Demands) (searchKey, bool)
}

// runSearch is the search searchWeights runs; tests wrap it to count
// searches.
var runSearch = localsearch.Search

// searchWeights runs the Fortz-Thorup search of opts on (n, d) from the
// network's InvCap weights and returns the best weights found. Inside a
// scenario run whose store shares the search's key, the search runs
// once for every cell that asks and every asker gets the same weights,
// which it must only read; anywhere else it runs here. The error is the
// search's own, with bad options reported as ErrBadInput; callers add
// their router's name.
func searchWeights(ctx context.Context, n *Network, d *Demands, opts localsearch.Options) ([]float64, error) {
	search := func() ([]float64, error) {
		opts.InitWeights = routing.InvCapWeights(n.g)
		res, err := runSearch(ctx, n.g, d.m, opts)
		if err != nil {
			return nil, asBadInput(err)
		}
		return res.Weights, nil
	}
	if k, ok := newSearchKey(n, d, opts); ok {
		if e := sharedSearch(ctx, k); e != nil {
			return e.get(search)
		}
	}
	return search()
}

// sampleFailures draws k distinct failures from the full list,
// deterministically for the seed: a partial Fisher-Yates shuffle
// selects the indices, which are then re-sorted into enumeration order.
// k >= len(all) selects every index, so the sorted sample reproduces
// the exhaustive list exactly — the bitwise sampled-equals-exhaustive
// property the tests pin. The draw happens once, on the calling
// goroutine, which is what keeps sampled-robust trajectories identical
// for any candidate-scoring worker count.
func sampleFailures(all [][]int, k int, seed int64) [][]int {
	if k >= len(all) {
		k = len(all)
	}
	idx := make([]int, len(all))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	sel := idx[:k]
	sort.Ints(sel)
	out := make([][]int, k)
	for i, ix := range sel {
		out[i] = all[ix]
	}
	return out
}

func (r ospfLSRouter) reusable() bool { return true }
