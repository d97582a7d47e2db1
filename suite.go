package spef

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"iter"
	"strconv"
	"strings"
	"sync"
)

// Suite is a declarative scenario sweep: topologies and demand
// generators named through the registry, the grid axes (loads, betas,
// failures), the routing schemes under comparison, and the metrics to
// record. A Suite is the JSON/flag-addressable form of a Grid — what
// the `spef suite` command parses and runs, and what EXPERIMENTS.md
// uses to make sweeps reproducible without Go code.
type Suite struct {
	// Name labels the suite in output.
	Name string `json:"name,omitempty"`
	// Topologies lists topology registry specs ("abilene",
	// "rand:n=50,links=242,seed=1", ...).
	Topologies []string `json:"topologies"`
	// Demands optionally overrides every topology's canonical demands
	// with a demand-generator spec ("ft:seed=7", "gravity", "uniform")
	// or a temporal demand-sequence spec ("gravity-diurnal:steps=24",
	// "ft-diurnal") — the latter expands every topology into a
	// load-over-time axis (one cell per step; see Grid.Scenarios).
	// Empty keeps each topology's registry default.
	Demands string `json:"demands,omitempty"`
	// Loads, Betas and Failures are the Grid axes. Failures is a
	// failure-set spec ("single", "dual", "srlg:file=PATH" — see
	// ResolveFailureSet).
	Loads    []float64 `json:"loads,omitempty"`
	Betas    []float64 `json:"betas,omitempty"`
	Failures string    `json:"failures,omitempty"`
	// Routers lists router specs: "spef", "invcap" (or "ospf"),
	// "peft", "optimal", "ospf-ls", "ospf-ls-robust", "sr",
	// "mpls-ksp", each optionally parameterized ("spef:iters=N",
	// "ospf-ls:iters=N,seed=S,wmax=W", "ospf-ls-robust:rho=R",
	// "sr:segs=2,base=invcap", "mpls-ksp:k=4"); see ResolveRouter
	// and `spef catalog`.
	Routers []string `json:"routers"`
	// Metrics lists metric names (see MetricsByName); empty selects
	// DefaultMetrics.
	Metrics []string `json:"metrics,omitempty"`
	// MaxIterations bounds every optimizing router's iteration budget —
	// Algorithm 1 iterations for spef/peft, Frank-Wolfe iterations for
	// optimal, local-search candidate evaluations for ospf-ls — (0
	// keeps each router's automatic budget); per-router iters=N
	// parameters override it.
	MaxIterations int `json:"max_iterations,omitempty"`
	// Workers bounds concurrent cells (0 selects GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// ReuseWeights optimizes each (topology, failure, router) group
	// once — at the first load — and re-simulates the extracted weights
	// across the load axis (see RunOptions.ReuseWeights).
	ReuseWeights bool `json:"reuse_weights,omitempty"`
}

// ParseSuite parses a JSON suite spec, rejecting unknown fields so
// typos fail loudly.
func ParseSuite(data []byte) (*Suite, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Suite
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: parsing suite spec: %v", ErrBadInput, err)
	}
	return &s, nil
}

// Grid resolves the suite's registry specs into a concrete Grid.
func (s *Suite) Grid() (Grid, error) {
	if len(s.Topologies) == 0 {
		return Grid{}, fmt.Errorf("%w: suite has no topologies", ErrBadInput)
	}
	if len(s.Routers) == 0 {
		return Grid{}, fmt.Errorf("%w: suite has no routers", ErrBadInput)
	}
	if s.MaxIterations < 0 {
		return Grid{}, fmt.Errorf("%w: suite max_iterations %d must be >= 0 (0 = automatic)", ErrBadInput, s.MaxIterations)
	}
	grid := Grid{
		Loads:    s.Loads,
		Betas:    s.Betas,
		Failures: s.Failures,
	}
	// Resolve the failure spec eagerly so a bad spec fails at suite
	// resolution (with the registry's inventory error), not mid-run.
	if _, err := ResolveFailureSet(s.Failures); err != nil {
		return Grid{}, fmt.Errorf("suite failures %q: %w", s.Failures, err)
	}
	for _, spec := range s.Topologies {
		// A suite-level demand spec replaces each topology's canonical
		// demands, so skip building them (fig1/simple keep their cheap
		// built-ins attached either way; the override still applies).
		t, err := resolveTopology(spec, s.Demands == "")
		if err != nil {
			return Grid{}, fmt.Errorf("suite topology %q: %w", spec, err)
		}
		if s.Demands != "" {
			steps, isSeq, err := ResolveDemandSequence(s.Demands, t.Network)
			if err != nil {
				return Grid{}, fmt.Errorf("suite demands %q: %w", s.Demands, err)
			}
			if isSeq {
				t.Steps = steps
				t.Demands = nil
			} else {
				d, err := ResolveDemands(s.Demands, t.Network)
				if err != nil {
					return Grid{}, fmt.Errorf("suite demands %q: %w", s.Demands, err)
				}
				if d == nil {
					return Grid{}, fmt.Errorf("%w: suite demand spec %q resolves to no demands", ErrBadInput, s.Demands)
				}
				t.Demands = d
			}
		}
		grid.Topologies = append(grid.Topologies, t)
	}
	for _, spec := range s.Routers {
		r, err := ResolveRouter(spec, s.MaxIterations)
		if err != nil {
			return Grid{}, fmt.Errorf("suite router %q: %w", spec, err)
		}
		grid.Routers = append(grid.Routers, r)
	}
	return grid, nil
}

// Scenarios expands the suite into its concrete cells.
func (s *Suite) Scenarios() ([]Scenario, error) {
	grid, err := s.Grid()
	if err != nil {
		return nil, err
	}
	return grid.Scenarios()
}

// RunOptions resolves the suite's metrics, worker count and
// weight-reuse mode.
func (s *Suite) RunOptions() (RunOptions, error) {
	opts := RunOptions{Workers: s.Workers, ReuseWeights: s.ReuseWeights}
	if len(s.Metrics) > 0 {
		m, err := MetricsByName(s.Metrics...)
		if err != nil {
			return RunOptions{}, err
		}
		opts.Metrics = m
	}
	return opts, nil
}

// Collect runs the suite on the deterministic batch path: one result
// per cell, in cell order, for any worker count.
func (s *Suite) Collect(ctx context.Context) ([]ScenarioResult, error) {
	cells, opts, err := s.resolve()
	if err != nil {
		return nil, err
	}
	return RunScenarios(ctx, cells, opts)
}

// Stream runs the suite on the streaming path: results are emitted as
// cells complete (sort by Index to recover batch order) and memory
// stays O(workers) regardless of suite size.
func (s *Suite) Stream(ctx context.Context) (iter.Seq[ScenarioResult], error) {
	cells, opts, err := s.resolve()
	if err != nil {
		return nil, err
	}
	return StreamScenarios(ctx, cells, opts), nil
}

func (s *Suite) resolve() ([]Scenario, RunOptions, error) {
	cells, err := s.Scenarios()
	if err != nil {
		return nil, RunOptions{}, err
	}
	opts, err := s.RunOptions()
	if err != nil {
		return nil, RunOptions{}, err
	}
	return cells, opts, nil
}

// MetricNames returns the resolved metric column order of the suite —
// what sinks should be constructed with.
func (s *Suite) MetricNames() ([]string, error) {
	opts, err := s.RunOptions()
	if err != nil {
		return nil, err
	}
	metrics := opts.metrics()
	names := make([]string, len(metrics))
	for i, m := range metrics {
		names[i] = m.Name()
	}
	return names, nil
}

// ResolveRouter resolves a router spec ("spef", "invcap"/"ospf",
// "peft", "optimal", "ospf-ls", "ospf-ls-robust", optionally with
// parameters — see the Routers section of `spef catalog`) into a
// Router. defaultIters bounds optimizing routers' iteration budget —
// Algorithm 1 iterations for spef/peft, Frank-Wolfe iterations for
// optimal, candidate evaluations for the local-search routers — when
// the spec carries no iters parameter (0 keeps each router's automatic
// budget). Unknown parameter keys fail loudly, with a did-you-mean
// hint for near-misses ("ospf-ls:iter=..." suggests iters).
func ResolveRouter(spec string, defaultIters int) (Router, error) {
	name, params, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	name = strings.ToLower(name)
	resolveIters := func(allowed ...string) (int64, error) {
		if err := onlyParams(spec, params, append([]string{"iters"}, allowed...)...); err != nil {
			return 0, err
		}
		iters, err := intParam(params, "iters", int64(defaultIters))
		if err == nil && iters < 0 {
			err = fmt.Errorf("%w: spec %q: iters=%d must be >= 0 (0 = automatic)", ErrBadInput, spec, iters)
		}
		return iters, err
	}
	switch name {
	case "spef", "peft", "optimal":
		iters, err := resolveIters()
		if err != nil {
			return nil, err
		}
		var opts []Option
		if iters > 0 {
			opts = append(opts, WithMaxIterations(int(iters)))
		}
		switch name {
		case "spef":
			return SPEF(opts...), nil
		case "peft":
			return PEFT(nil, opts...), nil
		default:
			return Optimal(opts...), nil
		}
	case "invcap", "ospf":
		if err := onlyParams(spec, params); err != nil {
			return nil, err
		}
		return OSPF(nil), nil
	case "ospf-ls", "ospf-ls-robust":
		robust := name == "ospf-ls-robust"
		allowed := []string{"seed", "wmax", "accept"}
		if robust {
			allowed = append(allowed, "rho", "sample", "sampleseed")
		}
		iters, err := resolveIters(allowed...)
		if err != nil {
			return nil, err
		}
		seed, err := intParam(params, "seed", 0)
		if err != nil {
			return nil, err
		}
		wmax, err := intParam(params, "wmax", 0)
		if err != nil {
			return nil, err
		}
		if _, set := params["wmax"]; set && wmax < 1 {
			return nil, fmt.Errorf("%w: spec %q: wmax=%d must be >= 1", ErrBadInput, spec, wmax)
		}
		rho, err := floatParam(params, "rho", 0)
		if err != nil {
			return nil, err
		}
		if _, set := params["rho"]; set && rho <= 0 {
			return nil, fmt.Errorf("%w: spec %q: rho=%v must be positive", ErrBadInput, spec, rho)
		}
		sample, err := intParam(params, "sample", 0)
		if err != nil {
			return nil, err
		}
		if _, set := params["sample"]; set && sample < 1 {
			return nil, fmt.Errorf("%w: spec %q: sample=%d must be >= 1", ErrBadInput, spec, sample)
		}
		sampleSeed, err := intParam(params, "sampleseed", 0)
		if err != nil {
			return nil, err
		}
		accept, tenure, err := parseAcceptParam(spec, params["accept"])
		if err != nil {
			return nil, err
		}
		return OSPFLocalSearch(LocalSearchOptions{
			MaxEvals:       int(iters),
			WeightMax:      int(wmax),
			Seed:           seed,
			Robust:         robust,
			FailurePenalty: rho,
			SampleFailures: int(sample),
			SampleSeed:     sampleSeed,
			Accept:         accept,
			TabuTenure:     tenure,
		}), nil
	case "mpls-ksp", "sr":
		allowed := []string{"seed", "wmax", "base"}
		if name == "mpls-ksp" {
			allowed = append(allowed, "k", "colgen")
		} else {
			allowed = append(allowed, "segs")
		}
		iters, err := resolveIters(allowed...)
		if err != nil {
			return nil, err
		}
		seed, err := intParam(params, "seed", 0)
		if err != nil {
			return nil, err
		}
		wmax, err := intParam(params, "wmax", 0)
		if err != nil {
			return nil, err
		}
		if _, set := params["wmax"]; set && wmax < 1 {
			return nil, fmt.Errorf("%w: spec %q: wmax=%d must be >= 1", ErrBadInput, spec, wmax)
		}
		opts := ExplicitOptions{
			MaxEvals:  int(iters),
			WeightMax: int(wmax),
			Seed:      seed,
		}
		switch base := params["base"]; base {
		case "", "ospf-ls":
		case "invcap":
			opts.InvCapBase = true
		default:
			return nil, fmt.Errorf("%w: spec %q: base=%q must be ospf-ls or invcap", ErrBadInput, spec, base)
		}
		if name == "mpls-ksp" {
			k, err := intParam(params, "k", defaultMPLSPaths)
			if err != nil {
				return nil, err
			}
			if k < 1 {
				return nil, fmt.Errorf("%w: spec %q: k=%d must be >= 1", ErrBadInput, spec, k)
			}
			opts.K = int(k)
			switch params["colgen"] {
			case "", "off":
			case "on":
				opts.ColGen = true
			default:
				return nil, fmt.Errorf("%w: spec %q: colgen=%q must be on or off", ErrBadInput, spec, params["colgen"])
			}
			return MPLSKSP(opts), nil
		}
		segs, err := intParam(params, "segs", 2)
		if err != nil {
			return nil, err
		}
		if segs != 1 && segs != 2 {
			return nil, fmt.Errorf("%w: spec %q: segs=%d must be 1 or 2", ErrBadInput, spec, segs)
		}
		opts.Segments = int(segs)
		return SegmentRouting(opts), nil
	}
	inv := routerInventory()
	return nil, fmt.Errorf("%w: unknown router %q%s (known: %s)",
		ErrBadInput, spec, suggest(name, inv.known), inv.list)
}

// parseAcceptParam parses a router spec's accept=... value: "" (keep
// the default), "hill", "tabu", or "tabu:tenure=N" with N >= 1. The
// tenure rides inside the accept value — parseSpec splits parameters on
// the first '=' only, so "accept=tabu:tenure=8" arrives here whole.
func parseAcceptParam(spec, v string) (accept string, tenure int, err error) {
	if v == "" {
		return "", 0, nil
	}
	rule, rest, hasRest := strings.Cut(v, ":")
	switch rule {
	case "hill":
		if hasRest {
			return "", 0, fmt.Errorf("%w: spec %q: accept=hill takes no tenure", ErrBadInput, spec)
		}
		return "hill", 0, nil
	case "tabu":
		if !hasRest {
			return "tabu", 0, nil
		}
		n, ok := strings.CutPrefix(rest, "tenure=")
		if !ok {
			return "", 0, fmt.Errorf("%w: spec %q: accept=tabu:%s (want tabu or tabu:tenure=N)", ErrBadInput, spec, rest)
		}
		tenure, err := strconv.Atoi(n)
		if err != nil || tenure < 1 {
			return "", 0, fmt.Errorf("%w: spec %q: tabu tenure %q must be an integer >= 1", ErrBadInput, spec, n)
		}
		return "tabu", tenure, nil
	}
	return "", 0, fmt.Errorf("%w: spec %q: accept=%q must be hill or tabu[:tenure=N]", ErrBadInput, spec, v)
}

// routerInventory caches the router name lists the unknown-spec error
// renders, so a server's bad-request path doesn't rebuild and re-join
// them per request.
var routerInventory = sync.OnceValue(func() (inv struct {
	known []string
	list  string
}) {
	inv.known = append(docNames(routerDocs), "ospf")
	inv.list = strings.Join(specNames(routerDocs), ", ")
	return inv
})
