package spef

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"iter"
	"strconv"
	"strings"
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

// routerSpecs are the router families. Their builders take the
// caller's default iteration budget (see ResolveRouter).
var routerSpecs = []specEntry[int, Router]{
	{
		name:    "spef",
		summary: "The paper's SPEF scheme: two weights per link, exponential penalty flow splitting.",
		params: []ParamDoc{
			{Name: "iters", Default: "auto", Doc: "Algorithm 1 iteration budget"},
		},
		build: func(a *specArgs, defaultIters int) (Router, error) {
			return SPEF(a.budget(defaultIters)...), nil
		},
	},
	{
		name:    "invcap",
		summary: "OSPF with inverse-capacity weights and ECMP splitting (alias: ospf).",
		aliases: []string{"ospf"},
		build:   func(*specArgs, int) (Router, error) { return OSPF(nil), nil },
	},
	{
		name:    "peft",
		summary: "PEFT: one weight per link, exponential penalty over path costs.",
		params: []ParamDoc{
			{Name: "iters", Default: "auto", Doc: "optimization iteration budget"},
		},
		build: func(a *specArgs, defaultIters int) (Router, error) {
			return PEFT(nil, a.budget(defaultIters)...), nil
		},
	},
	{
		name:    "optimal",
		summary: "The Frank-Wolfe optimal traffic engineering reference (not weight-realizable).",
		params: []ParamDoc{
			{Name: "iters", Default: "auto", Doc: "Frank-Wolfe iteration budget"},
		},
		build: func(a *specArgs, defaultIters int) (Router, error) {
			return Optimal(a.budget(defaultIters)...), nil
		},
	},
	{
		name:    "ospf-ls",
		summary: "Fortz-Thorup local search over OSPF link weights (incremental re-evaluation, InvCap start).",
		params: []ParamDoc{
			{Name: "iters", Default: "2000", Doc: "candidate-evaluation budget"},
			{Name: "wmax", Default: "20", Doc: "largest integer weight"},
			{Name: "seed", Default: "0", Doc: "neighborhood sampling seed"},
			{Name: "accept", Default: "hill", Doc: acceptDoc},
		},
		build: func(a *specArgs, defaultIters int) (Router, error) {
			return localSearchRouter(a, defaultIters, false)
		},
	},
	{
		name:    "mpls-ksp",
		summary: "MPLS explicit paths: per-demand splits over the k cheapest simple paths, LP-optimized for min MLU.",
		params: []ParamDoc{
			{Name: "k", Default: "4", Doc: "candidate paths per demand (with colgen=on: pricing-oracle scan width)"},
			{Name: "iters", Default: "2000", Doc: "base-weight local-search budget"},
			{Name: "wmax", Default: "20", Doc: "largest base integer weight"},
			{Name: "seed", Default: "0", Doc: "base-weight search seed"},
			{Name: "base", Default: "ospf-ls", Doc: "base weights: ospf-ls or invcap"},
			{Name: "colgen", Default: "off", Doc: "solve the split LP by column generation over all simple paths (on/off)"},
		},
		build: func(a *specArgs, defaultIters int) (Router, error) {
			opts := a.explicitOptions(defaultIters)
			opts.K = a.int("k")
			a.check(opts.K >= 1, "k=%d must be >= 1", opts.K)
			colgen := a.word("colgen")
			a.check(colgen == "" || colgen == "off" || colgen == "on", "colgen=%q must be on or off", colgen)
			opts.ColGen = colgen == "on"
			return MPLSKSP(opts), nil
		},
	},
	{
		name:    "sr",
		summary: "Segment routing: each demand detours through at most one greedily chosen ECMP midpoint.",
		params: []ParamDoc{
			{Name: "segs", Default: "2", Doc: "segment budget (1 = direct shortest paths)"},
			{Name: "iters", Default: "2000", Doc: "base-weight local-search budget"},
			{Name: "wmax", Default: "20", Doc: "largest base integer weight"},
			{Name: "seed", Default: "0", Doc: "base-weight search seed"},
			{Name: "base", Default: "ospf-ls", Doc: "base weights: ospf-ls or invcap"},
		},
		build: func(a *specArgs, defaultIters int) (Router, error) {
			opts := a.explicitOptions(defaultIters)
			opts.Segments = a.int("segs")
			a.check(opts.Segments == 1 || opts.Segments == 2, "segs=%d must be 1 or 2", opts.Segments)
			return SegmentRouting(opts), nil
		},
	},
	{
		name:    "ospf-ls-robust",
		summary: "Failure-aware local search: candidates scored against every single-link-failure variant.",
		params: []ParamDoc{
			{Name: "iters", Default: "2000", Doc: "candidate-evaluation budget"},
			{Name: "wmax", Default: "20", Doc: "largest integer weight"},
			{Name: "seed", Default: "0", Doc: "neighborhood sampling seed"},
			{Name: "rho", Default: "1", Doc: "weight of the mean failure-variant cost in the score"},
			{Name: "sample", Default: "all", Doc: "score k seeded sampled failure variants per candidate instead of all (k >= total is exactly exhaustive)"},
			{Name: "sampleseed", Default: "0", Doc: "failure-variant sample seed"},
			{Name: "accept", Default: "hill", Doc: acceptDoc},
		},
		build: func(a *specArgs, defaultIters int) (Router, error) {
			return localSearchRouter(a, defaultIters, true)
		},
	},
}

const acceptDoc = "move acceptance: hill, or tabu:tenure=N (best move each round, changed link tabu for N rounds)"

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
	e, a, err := lookup(routerSpecs, spec)
	switch {
	case err != nil:
		return nil, err
	case e == nil:
		return nil, fmt.Errorf("%w: unknown router %q%s (known: %s)",
			ErrBadInput, spec, suggest(a.name, names(routerSpecs)), inventory(routerSpecs))
	}
	return e.resolve(a, defaultIters)
}

// iters reads a router's iteration budget: the spec's iters, else the
// caller's defaultIters; 0 is automatic.
func (a *specArgs) iters(defaultIters int) int {
	iters := defaultIters
	if a.set("iters") {
		iters = a.int("iters")
	}
	a.check(iters >= 0, "iters=%d must be >= 0 (0 = automatic)", iters)
	return iters
}

// budget reads an optimizing router's iteration budget as its options.
func (a *specArgs) budget(defaultIters int) []Option {
	if iters := a.iters(defaultIters); iters > 0 {
		return []Option{WithMaxIterations(iters)}
	}
	return nil
}

// localSearchRouter builds the ospf-ls and ospf-ls-robust routers.
func localSearchRouter(a *specArgs, defaultIters int, robust bool) (Router, error) {
	opts := LocalSearchOptions{MaxEvals: a.iters(defaultIters), Robust: robust}
	opts.Seed = int64(a.int("seed"))
	opts.WeightMax = a.int("wmax")
	a.check(opts.WeightMax >= 1, "wmax=%d must be >= 1", opts.WeightMax)
	if robust {
		opts.FailurePenalty = a.float("rho")
		a.check(opts.FailurePenalty > 0, "rho=%v must be positive", opts.FailurePenalty)
		opts.SampleFailures = a.int("sample")
		a.check(!a.set("sample") || opts.SampleFailures >= 1, "sample=%d must be >= 1", opts.SampleFailures)
		opts.SampleSeed = int64(a.int("sampleseed"))
	}
	var err error
	opts.Accept, opts.TabuTenure, err = parseAcceptParam(a.spec, a.word("accept"))
	return OSPFLocalSearch(opts), err
}

// explicitOptions reads the base-weight search parameters the sr and
// mpls-ksp routers share.
func (a *specArgs) explicitOptions(defaultIters int) ExplicitOptions {
	opts := ExplicitOptions{MaxEvals: a.iters(defaultIters)}
	opts.Seed = int64(a.int("seed"))
	opts.WeightMax = a.int("wmax")
	a.check(opts.WeightMax >= 1, "wmax=%d must be >= 1", opts.WeightMax)
	base := a.word("base")
	a.check(base == "" || base == "ospf-ls" || base == "invcap", "base=%q must be ospf-ls or invcap", base)
	opts.InvCapBase = base == "invcap"
	return opts
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
