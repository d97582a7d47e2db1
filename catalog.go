package spef

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// This file is the registry's self-description: one SpecDoc per
// resolvable spec, consumed by the `spef catalog` subcommand, the
// generated README catalog section, and the unknown-spec error
// messages of ResolveTopology/ResolveDemands/ResolveRouter. Adding a
// spec to the registry means adding its SpecDoc here — the catalog
// sync check in CI keeps the committed docs honest.

// ParamDoc documents one spec parameter.
type ParamDoc struct {
	// Name is the parameter key ("seed").
	Name string
	// Default renders the value used when the parameter is omitted
	// ("1", "required").
	Default string
	// Doc is the one-line description.
	Doc string
}

// SpecDoc documents one registry spec: its name, what it resolves to,
// and its parameters.
type SpecDoc struct {
	// Name is the spec name before the colon ("waxman").
	Name string
	// Summary is the one-line description.
	Summary string
	// Params documents the accepted parameters, empty for none.
	Params []ParamDoc
}

// Spec renders the spec's canonical form ("waxman:n=...,alpha=...").
func (s SpecDoc) Spec() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	parts := make([]string, len(s.Params))
	for i, p := range s.Params {
		parts[i] = p.Name + "=..."
	}
	return s.Name + ":" + strings.Join(parts, ",")
}

var topologyGeneratorDocs = []SpecDoc{
	{
		Name:    "rand",
		Summary: "Connected uniform random network, unit capacities (the paper's \"Random\" class).",
		Params: []ParamDoc{
			{Name: "n", Default: "50", Doc: "node count"},
			{Name: "links", Default: "242", Doc: "directed link count (even: duplex pairs)"},
			{Name: "seed", Default: "1", Doc: "generator seed"},
		},
	},
	{
		Name:    "hier",
		Summary: "GT-ITM style 2-level hierarchy: capacity-1 local links, capacity-5 long-distance links.",
		Params: []ParamDoc{
			{Name: "n", Default: "50", Doc: "node count"},
			{Name: "clusters", Default: "5", Doc: "cluster count"},
			{Name: "links", Default: "222", Doc: "directed link count (even: duplex pairs)"},
			{Name: "seed", Default: "1", Doc: "generator seed"},
		},
	},
	{
		Name:    "waxman",
		Summary: "Connected Waxman random geometric network: link probability alpha*exp(-d/(beta*L)), unit capacities.",
		Params: []ParamDoc{
			{Name: "n", Default: "50", Doc: "node count"},
			{Name: "alpha", Default: "0.4", Doc: "density parameter in (0, 1]"},
			{Name: "beta", Default: "0.2", Doc: "characteristic link length (fraction of the diameter)"},
			{Name: "seed", Default: "1", Doc: "generator seed"},
		},
	},
	{
		Name:    "ba",
		Summary: "Connected Barabási–Albert scale-free network (preferential attachment), unit capacities.",
		Params: []ParamDoc{
			{Name: "n", Default: "50", Doc: "node count"},
			{Name: "m", Default: "2", Doc: "links added per new node"},
			{Name: "seed", Default: "1", Doc: "generator seed"},
		},
	},
	{
		Name:    "fattree",
		Summary: "k-ary fat-tree data-center fabric: (k/2)^2 cores, k pods of k/2 aggregation + k/2 edge switches.",
		Params: []ParamDoc{
			{Name: "k", Default: "4", Doc: "arity (even)"},
		},
	},
	{
		Name:    "grid",
		Summary: "rows x cols lattice of unit-capacity duplex links, optionally closed into a torus.",
		Params: []ParamDoc{
			{Name: "rows", Default: "5", Doc: "row count"},
			{Name: "cols", Default: "5", Doc: "column count"},
			{Name: "wrap", Default: "0", Doc: "1 closes the torus"},
		},
	},
	{
		Name:    "zoo",
		Summary: "Topology Zoo GraphML import; speeds from LinkSpeedRaw/LinkSpeed/LinkLabel, inference for the rest.",
		Params: []ParamDoc{
			{Name: "file", Default: "required", Doc: "path to the .graphml file"},
			{Name: "cap", Default: "inferred", Doc: "capacity for unannotated links (default: median of annotated)"},
			{Name: "unit", Default: "1e9", Doc: "bit/s per topology capacity unit (1e9 = Gbps)"},
		},
	},
	{
		Name:    "sndlib",
		Summary: "SNDlib native-format import; the file's DEMANDS section becomes the canonical workload.",
		Params: []ParamDoc{
			{Name: "file", Default: "required", Doc: "path to the SNDlib native file"},
			{Name: "cap", Default: "inferred", Doc: "capacity for unannotated links (default: median of annotated)"},
		},
	},
}

var demandDocs = []SpecDoc{
	{
		Name:    "ft",
		Summary: "Fortz-Thorup synthetic demands: D(s,t) = O_s * I_t * C_st with uniform random factors.",
		Params: []ParamDoc{
			{Name: "seed", Default: "1", Doc: "generator seed"},
		},
	},
	{
		Name:    "gravity",
		Summary: "Gravity model over log-normal synthetic per-node volumes, normalized to total network capacity.",
		Params: []ParamDoc{
			{Name: "seed", Default: "1", Doc: "volume seed"},
			{Name: "sigma", Default: "0.5", Doc: "log-normal volume spread"},
		},
	},
	{
		Name:    "uniform",
		Summary: "Volume v between every ordered node pair.",
		Params: []ParamDoc{
			{Name: "v", Default: "1", Doc: "per-pair volume"},
		},
	},
	{
		Name:    "none",
		Summary: "No demands (topology only).",
	},
}

var sequenceDocs = []SpecDoc{
	{
		Name:    "gravity-diurnal",
		Summary: "Gravity matrix swept through a sinusoidal day cycle, optional hotspot burst in the middle third.",
		Params: []ParamDoc{
			{Name: "seed", Default: "1", Doc: "volume and hotspot seed"},
			{Name: "sigma", Default: "0.5", Doc: "log-normal volume spread"},
			{Name: "steps", Default: "24", Doc: "steps per cycle"},
			{Name: "peak", Default: "1", Doc: "peak multiplier (midday)"},
			{Name: "trough", Default: "0.2", Doc: "trough multiplier (midnight)"},
			{Name: "hotspots", Default: "0", Doc: "boosted source-destination pairs (0 disables the burst)"},
			{Name: "boost", Default: "4", Doc: "volume multiplier on hotspot pairs during the burst"},
		},
	},
	{
		Name:    "ft-diurnal",
		Summary: "Fortz-Thorup matrix swept through the same diurnal cycle and optional hotspot burst.",
		Params: []ParamDoc{
			{Name: "seed", Default: "1", Doc: "demand and hotspot seed"},
			{Name: "steps", Default: "24", Doc: "steps per cycle"},
			{Name: "peak", Default: "1", Doc: "peak multiplier (midday)"},
			{Name: "trough", Default: "0.2", Doc: "trough multiplier (midnight)"},
			{Name: "hotspots", Default: "0", Doc: "boosted source-destination pairs (0 disables the burst)"},
			{Name: "boost", Default: "4", Doc: "volume multiplier on hotspot pairs during the burst"},
		},
	},
}

var routerDocs = []SpecDoc{
	{
		Name:    "spef",
		Summary: "The paper's SPEF scheme: two weights per link, exponential penalty flow splitting.",
		Params: []ParamDoc{
			{Name: "iters", Default: "auto", Doc: "Algorithm 1 iteration budget"},
		},
	},
	{
		Name:    "invcap",
		Summary: "OSPF with inverse-capacity weights and ECMP splitting (alias: ospf).",
	},
	{
		Name:    "peft",
		Summary: "PEFT: one weight per link, exponential penalty over path costs.",
		Params: []ParamDoc{
			{Name: "iters", Default: "auto", Doc: "optimization iteration budget"},
		},
	},
	{
		Name:    "optimal",
		Summary: "The Frank-Wolfe optimal traffic engineering reference (not weight-realizable).",
		Params: []ParamDoc{
			{Name: "iters", Default: "auto", Doc: "Frank-Wolfe iteration budget"},
		},
	},
	{
		Name:    "ospf-ls",
		Summary: "Fortz-Thorup local search over OSPF link weights (incremental re-evaluation, InvCap start).",
		Params: []ParamDoc{
			{Name: "iters", Default: "2000", Doc: "candidate-evaluation budget"},
			{Name: "wmax", Default: "20", Doc: "largest integer weight"},
			{Name: "seed", Default: "0", Doc: "neighborhood sampling seed"},
			{Name: "accept", Default: "hill", Doc: "move acceptance: hill, or tabu:tenure=N (best move each round, changed link tabu for N rounds)"},
		},
	},
	{
		Name:    "mpls-ksp",
		Summary: "MPLS explicit paths: per-demand splits over the k cheapest simple paths, LP-optimized for min MLU.",
		Params: []ParamDoc{
			{Name: "k", Default: "4", Doc: "candidate paths per demand (with colgen=on: pricing-oracle scan width)"},
			{Name: "iters", Default: "2000", Doc: "base-weight local-search budget"},
			{Name: "wmax", Default: "20", Doc: "largest base integer weight"},
			{Name: "seed", Default: "0", Doc: "base-weight search seed"},
			{Name: "base", Default: "ospf-ls", Doc: "base weights: ospf-ls or invcap"},
			{Name: "colgen", Default: "off", Doc: "solve the split LP by column generation over all simple paths (on/off)"},
		},
	},
	{
		Name:    "sr",
		Summary: "Segment routing: each demand detours through at most one greedily chosen ECMP midpoint.",
		Params: []ParamDoc{
			{Name: "segs", Default: "2", Doc: "segment budget (1 = direct shortest paths)"},
			{Name: "iters", Default: "2000", Doc: "base-weight local-search budget"},
			{Name: "wmax", Default: "20", Doc: "largest base integer weight"},
			{Name: "seed", Default: "0", Doc: "base-weight search seed"},
			{Name: "base", Default: "ospf-ls", Doc: "base weights: ospf-ls or invcap"},
		},
	},
	{
		Name:    "ospf-ls-robust",
		Summary: "Failure-aware local search: candidates scored against every single-link-failure variant.",
		Params: []ParamDoc{
			{Name: "iters", Default: "2000", Doc: "candidate-evaluation budget"},
			{Name: "wmax", Default: "20", Doc: "largest integer weight"},
			{Name: "seed", Default: "0", Doc: "neighborhood sampling seed"},
			{Name: "rho", Default: "1", Doc: "weight of the mean failure-variant cost in the score"},
			{Name: "sample", Default: "all", Doc: "score k seeded sampled failure variants per candidate instead of all (k >= total is exactly exhaustive)"},
			{Name: "sampleseed", Default: "0", Doc: "failure-variant sample seed"},
			{Name: "accept", Default: "hill", Doc: "move acceptance: hill, or tabu:tenure=N (best move each round, changed link tabu for N rounds)"},
		},
	},
}

var failureDocs = []SpecDoc{
	{
		Name:    "single",
		Summary: "One failure variant per duplex pair — the classic single-link-failure axis.",
	},
	{
		Name:    "dual",
		Summary: "Every single-link variant plus one variant per unordered pair of duplex-pair failures.",
	},
	{
		Name:    "srlg",
		Summary: "Shared-risk link groups: one variant per named group from a JSON file, all of its links failing together.",
		Params: []ParamDoc{
			{Name: "file", Default: "required", Doc: `JSON group file: {"groups":[{"name":...,"links":[["A","B"],...]}]}`},
		},
	},
}

var metricDocs = []SpecDoc{
	{Name: MetricMLU, Summary: "Maximum link utilization — the paper's primary congestion measure."},
	{Name: MetricUtility, Summary: "Normalized utility sum log(1-u) of Fig. 10; -inf past saturation."},
	{Name: MetricMeanUtilization, Summary: "Mean per-link utilization."},
	{Name: MetricP95Utilization, Summary: "95th-percentile link utilization (any \"p<n>_util\" percentile resolves)."},
	{Name: MetricMM1Delay, Summary: "Total M/M/1 queueing delay sum f/(c-f); +inf once a link saturates."},
	{Name: MetricMaxStretch, Summary: "Maximum volume-weighted path stretch over destinations (1.0 = hop-shortest)."},
	{Name: MetricFortz, Summary: "Total Fortz-Thorup piecewise-linear congestion cost (the ospf-ls objective)."},
	{Name: MetricFortzNorm, Summary: "Fortz-Thorup cost normalized by uncapacitated hop-shortest routing (Phi*; 1.0 = uncongested optimum)."},
	{Name: MetricFailMLU, Summary: "Worst MLU of the cell's weights over the intact state and every single duplex-pair failure (+inf when a failure strands demand; OSPF/ECMP weight-backed routers only)."},
}

// Catalog is the full registry inventory: every named topology, every
// parameterized generator and importer, every demand generator and
// temporal sequence, every router, every metric. It is what `spef
// catalog` renders and what suite authors consult for valid specs.
type Catalog struct {
	// Topologies lists the registered named topologies.
	Topologies []TopologyInfo
	// Generators documents the parameterized topology generators and
	// file importers.
	Generators []SpecDoc
	// Demands documents the demand-generator specs.
	Demands []SpecDoc
	// Sequences documents the temporal demand-sequence specs.
	Sequences []SpecDoc
	// Routers documents the router specs.
	Routers []SpecDoc
	// Failures documents the failure-set specs.
	Failures []SpecDoc
	// Metrics documents the metric names.
	Metrics []SpecDoc
}

// NewCatalog assembles the registry's current inventory.
func NewCatalog() (*Catalog, error) {
	topos, err := RegisteredTopologies()
	if err != nil {
		return nil, err
	}
	return &Catalog{
		Topologies: topos,
		Generators: topologyGeneratorDocs,
		Demands:    demandDocs,
		Sequences:  sequenceDocs,
		Routers:    routerDocs,
		Failures:   failureDocs,
		Metrics:    metricDocs,
	}, nil
}

// WriteText renders the catalog as aligned text tables for terminals.
func (c *Catalog) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAMED TOPOLOGIES\tclass\tnodes\tlinks")
	for _, t := range c.Topologies {
		fmt.Fprintf(tw, "  %s\t%s\t%d\t%d\n", t.Name, t.Class, t.Nodes, t.Links)
	}
	sections := []struct {
		title string
		docs  []SpecDoc
	}{
		{"TOPOLOGY GENERATORS & IMPORTERS", c.Generators},
		{"DEMAND GENERATORS", c.Demands},
		{"DEMAND SEQUENCES (temporal)", c.Sequences},
		{"ROUTERS", c.Routers},
		{"FAILURE SETS", c.Failures},
		{"METRICS", c.Metrics},
	}
	for _, sec := range sections {
		fmt.Fprintf(tw, "\n%s\t\t\t\n", sec.title)
		for _, d := range sec.docs {
			fmt.Fprintf(tw, "  %s\t%s\t\t\n", d.Spec(), d.Summary)
			for _, p := range d.Params {
				fmt.Fprintf(tw, "    %s\t(default %s) %s\t\t\n", p.Name, p.Default, p.Doc)
			}
		}
	}
	return tw.Flush()
}

// WriteMarkdown renders the catalog as the Markdown fragment embedded
// in README.md between the spef-catalog markers; CI regenerates it and
// fails when the committed section drifts.
func (c *Catalog) WriteMarkdown(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("### Named topologies\n\n")
	bw.printf("| spec | class | nodes | links |\n|---|---|---:|---:|\n")
	for _, t := range c.Topologies {
		bw.printf("| `%s` | %s | %d | %d |\n", t.Name, t.Class, t.Nodes, t.Links)
	}
	sections := []struct {
		title string
		docs  []SpecDoc
	}{
		{"Topology generators & importers", c.Generators},
		{"Demand generators", c.Demands},
		{"Demand sequences (temporal)", c.Sequences},
		{"Routers", c.Routers},
		{"Failure sets", c.Failures},
		{"Metrics", c.Metrics},
	}
	for _, sec := range sections {
		bw.printf("\n### %s\n", sec.title)
		for _, d := range sec.docs {
			bw.printf("\n- `%s` — %s\n", d.Spec(), d.Summary)
			for _, p := range d.Params {
				bw.printf("  - `%s` (default %s): %s\n", p.Name, p.Default, p.Doc)
			}
		}
	}
	return bw.err
}

// errWriter latches the first write error, so the render loop needs no
// per-line error plumbing.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

// specNames lists the doc'd spec names for error messages, appending
// ":..." to parameterized specs.
func specNames(docs []SpecDoc) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.Name
		if len(d.Params) > 0 {
			out[i] += ":..."
		}
	}
	return out
}

// docNames lists the bare spec names — what suggest compares typos
// against (the ":..." display suffix of specNames would inflate every
// edit distance past the threshold).
func docNames(docs []SpecDoc) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.Name
	}
	return out
}

// suggest returns a "did you mean" hint when the unknown name is a
// small edit away from a known one, or "" otherwise.
func suggest(name string, known []string) string {
	best, bestDist := "", 3 // accept distance <= 2
	for _, k := range known {
		if d := editDistance(strings.ToLower(name), strings.ToLower(k)); d < bestDist {
			best, bestDist = k, d
		}
	}
	if best == "" {
		return ""
	}
	return fmt.Sprintf(" (did you mean %q?)", best)
}

// editDistance is the Levenshtein distance over bytes, capped in
// practice by suggest's threshold so the O(len^2) cost is trivial.
func editDistance(a, b string) int {
	if a == b {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
