package spef

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/topo"
	"repro/internal/topoio"
	"repro/internal/traffic"
)

// This file is the topology and demand registry: the string-addressable
// catalog Suite specs, `spef suite` and `spef topogen` resolve networks
// and workloads through. Topology specs are registered names
// ("abilene", "cernet2", "fig1", "simple", "hier50a", "hier50b",
// "rand50a", "rand50b", "rand100" — the paper's Table III set plus the
// worked examples), parameterized generators ("rand:n=50,links=242",
// "hier:...", "waxman:n=50,alpha=0.4,beta=0.2", "ba:n=50,m=2",
// "fattree:k=4", "grid:rows=5,cols=5"), or dataset importers
// ("zoo:file=net.graphml", "sndlib:file=net.txt"). Demand specs name a
// generator with optional parameters ("ft:seed=7",
// "gravity:seed=1,sigma=0.5", "uniform:v=2", "none"); temporal demand
// sequences ("gravity-diurnal:steps=24", "ft-diurnal:...") resolve
// through ResolveDemandSequence into a time axis.
//
// Every parameterized spec, here and in the router, failure-set and
// metric tables, is one specEntry: its name, summary, parameters with
// their defaults, and builder. The entry is both what `spef catalog`
// renders (see NewCatalog) and what the parser enforces: lookup rejects
// any key the entry does not document, or gives twice, and a numeric
// parameter the spec omits reads as its documented default.

// TopologyInfo describes one registered named topology.
type TopologyInfo struct {
	// Name is the registry spec ("abilene").
	Name string
	// ID is the canonical display ID ("Abilene" — Table III's network
	// ID, also the default Topology.Name of ResolveTopology).
	ID string
	// Class is the paper's topology class: "Backbone", "2-level",
	// "Random", or "Example".
	Class string
	// Nodes and Links count the topology's nodes and directed links.
	Nodes, Links int
}

// exampleTopologies are the paper's two worked examples, registered by
// name with their built-in demands.
var exampleTopologies = []struct {
	name, id string
	build    func() (*Network, *Demands, error)
}{
	{name: "fig1", id: "Fig1", build: Fig1Example},
	{name: "simple", id: "Simple", build: SimpleExample},
}

// RegisteredTopologies lists every named topology in the registry: the
// paper's Table III evaluation set followed by the two worked examples.
func RegisteredTopologies() ([]TopologyInfo, error) {
	nets, err := topo.Table3Networks()
	if err != nil {
		return nil, err
	}
	out := make([]TopologyInfo, 0, len(nets)+len(exampleTopologies))
	for _, n := range nets {
		out = append(out, TopologyInfo{
			Name:  strings.ToLower(n.ID),
			ID:    n.ID,
			Class: n.Topology,
			Nodes: n.G.NumNodes(),
			Links: n.G.NumLinks(),
		})
	}
	for _, ex := range exampleTopologies {
		n, _, err := ex.build()
		if err != nil {
			return nil, err
		}
		out = append(out, TopologyInfo{
			Name:  ex.name,
			ID:    ex.id,
			Class: "Example",
			Nodes: n.NumNodes(),
			Links: n.NumLinks(),
		})
	}
	return out, nil
}

// topologySpecs are the parameterized topology generators and dataset
// importers. Their builders take whether to attach the canonical
// demands (see resolveTopology).
var topologySpecs = []specEntry[bool, Topology]{
	{
		name:    "rand",
		summary: "Connected uniform random network, unit capacities (the paper's \"Random\" class).",
		params: []ParamDoc{
			{Name: "n", Default: "50", Doc: "node count"},
			{Name: "links", Default: "242", Doc: "directed link count (even: duplex pairs)"},
			{Name: "seed", Default: "1", Doc: "generator seed"},
		},
		build: func(a *specArgs, withDemands bool) (Topology, error) {
			seed, n, links := a.int("seed"), a.int("n"), a.int("links")
			return a.generated(withDemands, func() (*Network, error) { return RandomNetwork(int64(seed), n, links) })
		},
	},
	{
		name:    "hier",
		summary: "GT-ITM style 2-level hierarchy: capacity-1 local links, capacity-5 long-distance links.",
		params: []ParamDoc{
			{Name: "n", Default: "50", Doc: "node count"},
			{Name: "clusters", Default: "5", Doc: "cluster count"},
			{Name: "links", Default: "222", Doc: "directed link count (even: duplex pairs)"},
			{Name: "seed", Default: "1", Doc: "generator seed"},
		},
		build: func(a *specArgs, withDemands bool) (Topology, error) {
			seed, n, links, clusters := a.int("seed"), a.int("n"), a.int("links"), a.int("clusters")
			return a.generated(withDemands, func() (*Network, error) { return HierarchicalNetwork(int64(seed), n, clusters, links) })
		},
	},
	{
		name:    "waxman",
		summary: "Connected Waxman random geometric network: link probability alpha*exp(-d/(beta*L)), unit capacities.",
		params: []ParamDoc{
			{Name: "n", Default: "50", Doc: "node count"},
			{Name: "alpha", Default: "0.4", Doc: "density parameter in (0, 1]"},
			{Name: "beta", Default: "0.2", Doc: "characteristic link length (fraction of the diameter)"},
			{Name: "seed", Default: "1", Doc: "generator seed"},
		},
		build: func(a *specArgs, withDemands bool) (Topology, error) {
			seed, n, alpha, beta := a.int("seed"), a.int("n"), a.float("alpha"), a.float("beta")
			return a.generated(withDemands, func() (*Network, error) { return WaxmanNetwork(int64(seed), n, alpha, beta) })
		},
	},
	{
		name:    "ba",
		summary: "Connected Barabási–Albert scale-free network (preferential attachment), unit capacities.",
		params: []ParamDoc{
			{Name: "n", Default: "50", Doc: "node count"},
			{Name: "m", Default: "2", Doc: "links added per new node"},
			{Name: "seed", Default: "1", Doc: "generator seed"},
		},
		build: func(a *specArgs, withDemands bool) (Topology, error) {
			seed, n, m := a.int("seed"), a.int("n"), a.int("m")
			return a.generated(withDemands, func() (*Network, error) { return BarabasiAlbertNetwork(int64(seed), n, m) })
		},
	},
	{
		name:    "fattree",
		summary: "k-ary fat-tree data-center fabric: (k/2)^2 cores, k pods of k/2 aggregation + k/2 edge switches.",
		params: []ParamDoc{
			{Name: "k", Default: "4", Doc: "arity (even)"},
		},
		build: func(a *specArgs, withDemands bool) (Topology, error) {
			k := a.int("k")
			return a.generated(withDemands, func() (*Network, error) { return FatTreeNetwork(k) })
		},
	},
	{
		name:    "grid",
		summary: "rows x cols lattice of unit-capacity duplex links, optionally closed into a torus.",
		params: []ParamDoc{
			{Name: "rows", Default: "5", Doc: "row count"},
			{Name: "cols", Default: "5", Doc: "column count"},
			{Name: "wrap", Default: "0", Doc: "1 closes the torus"},
		},
		build: func(a *specArgs, withDemands bool) (Topology, error) {
			rows, cols, wrap := a.int("rows"), a.int("cols"), a.int("wrap")
			a.check(wrap == 0 || wrap == 1, "wrap=%d must be 0 or 1", wrap)
			return a.generated(withDemands, func() (*Network, error) { return GridNetwork(rows, cols, wrap == 1) })
		},
	},
	{
		name:    "zoo",
		summary: "Topology Zoo GraphML import; speeds from LinkSpeedRaw/LinkSpeed/LinkLabel, inference for the rest.",
		params: []ParamDoc{
			{Name: "file", Default: "required", Doc: "path to the .graphml file"},
			{Name: "cap", Default: "inferred", Doc: "capacity for unannotated links (default: median of annotated)"},
			{Name: "unit", Default: "1e9", Doc: "bit/s per topology capacity unit (1e9 = Gbps)"},
		},
		build: func(a *specArgs, withDemands bool) (Topology, error) {
			return importedTopology(a, withDemands, topoio.ReadGraphML)
		},
	},
	{
		name:    "sndlib",
		summary: "SNDlib native-format import; the file's DEMANDS section becomes the canonical workload.",
		params: []ParamDoc{
			{Name: "file", Default: "required", Doc: "path to the SNDlib native file"},
			{Name: "cap", Default: "inferred", Doc: "capacity for unannotated links (default: median of annotated)"},
		},
		build: func(a *specArgs, withDemands bool) (Topology, error) {
			return importedTopology(a, withDemands, topoio.ReadSNDlib)
		},
	},
}

// ResolveTopology resolves a topology spec into a named Topology with
// its canonical base demands: the paper's synthetic workload for the
// Table III networks (Fortz-Thorup for Abilene and the generated
// topologies, capacity-weighted gravity for Cernet2), the built-in
// demands for fig1 and simple, and generic Fortz-Thorup demands for
// parameterized generators. Override the demands via ResolveDemands
// when a different workload is wanted.
func ResolveTopology(spec string) (Topology, error) {
	return resolveTopology(spec, true)
}

// resolveTopology optionally skips the canonical-demand construction
// (an O(n^2) synthetic-matrix build per topology) for callers that
// immediately override the demands, like a Suite with a Demands spec.
// The fig1/simple built-ins are always attached: they are the
// topology's defining workload and cost nothing.
func resolveTopology(spec string, withDemands bool) (Topology, error) {
	e, a, err := lookup(topologySpecs, spec)
	switch {
	case err != nil:
		return Topology{}, err
	case e != nil:
		return e.resolve(a, withDemands)
	}
	name := a.name
	for _, ex := range exampleTopologies {
		if ex.name == name {
			if err := onlyParams(name, a.given); err != nil {
				return Topology{}, err
			}
			n, d, err := ex.build()
			if err != nil {
				return Topology{}, err
			}
			return Topology{Name: name, Network: n, Demands: d}, nil
		}
	}
	net, ok, err := topo.Table3Network(name)
	if err != nil {
		return Topology{}, err
	}
	if ok {
		if err := onlyParams(spec, a.given); err != nil {
			return Topology{}, err
		}
		return canonicalTopology(net.ID, net.ID, &Network{g: net.G}, withDemands)
	}
	// The name matched nothing: report the unknown name (with a
	// near-miss suggestion against the bare spec names) rather than
	// whatever parameters rode along with the typo.
	return Topology{}, fmt.Errorf("%w: unknown topology %q%s (known: %s)",
		ErrBadInput, spec, suggest(name, append(namedTopologies(), names(topologySpecs)...)), knownTopologies())
}

// generated finishes a generator spec: a bad parameter, or the
// generator's rejection of the values, is bad input, and the network
// gets the generic canonical workload.
func (a *specArgs) generated(withDemands bool, gen func() (*Network, error)) (Topology, error) {
	n, err := built(a, gen)
	if err != nil {
		return Topology{}, err
	}
	return canonicalTopology(a.spec, "", n, withDemands)
}

// importedTopology resolves the "zoo:file=..." and "sndlib:file=..."
// importer specs. The topology is named by the file's self-declared
// name, falling back to the file's base name. SNDlib demands, when
// present, become the topology's canonical workload; otherwise (and
// for GraphML, which carries none) the generic synthetic workload
// applies.
func importedTopology(a *specArgs, withDemands bool, parse func(io.Reader, topoio.Options) (*topoio.Imported, error)) (Topology, error) {
	path := a.word("file")
	if path == "" {
		return Topology{}, fmt.Errorf("%w: spec %q needs file=PATH", ErrBadInput, a.spec)
	}
	opts := ImportOptions{DefaultCapacity: a.float("cap")}
	a.check(!a.set("cap") || opts.DefaultCapacity > 0, "cap=%v must be positive", opts.DefaultCapacity)
	if a.documents("unit") { // only GraphML speeds are bit/s
		opts.CapacityUnit = a.float("unit")
		a.check(opts.CapacityUnit > 0, "unit=%v must be positive", opts.CapacityUnit)
	}
	if a.err != nil {
		return Topology{}, a.err
	}
	f, err := os.Open(path)
	if err != nil {
		return Topology{}, fmt.Errorf("%w: spec %q: %v", ErrBadInput, a.spec, err)
	}
	defer f.Close()
	imp, err := readImported(f, opts, parse)
	if err != nil {
		return Topology{}, badSpec(a.spec, err)
	}
	name := imp.Name
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	if imp.Demands != nil {
		// The file's own workload is the topology's defining demand set;
		// it is attached regardless of withDemands (it is already built).
		return Topology{Name: name, Network: imp.Network, Demands: imp.Demands}, nil
	}
	return canonicalTopology(name, "", imp.Network, withDemands)
}

// namedTopologies lists the registry's named topology specs (for error
// messages), or nil if the registry fails to build. The set is static
// per process, and building it means constructing every Table III
// network, so it is computed once and cached: a long-running server's
// bad-request path must not rebuild the registry per request. The
// returned slice is full (len == cap), so callers may append without
// clobbering the cache, but must not write to it in place.
var namedTopologies = sync.OnceValue(func() []string {
	infos, err := RegisteredTopologies()
	if err != nil {
		return nil
	}
	names := make([]string, len(infos))
	for i, t := range infos {
		names[i] = t.Name
	}
	return names
})

// canonicalTopology attaches the canonical synthetic workload to a
// resolved network. canonicalID selects the Table III workload ("" uses
// the generic one); withDemands false skips the matrix build.
func canonicalTopology(name, canonicalID string, n *Network, withDemands bool) (Topology, error) {
	t := Topology{Name: name, Network: n}
	if !withDemands {
		return t, nil
	}
	m, err := traffic.CanonicalMatrix(canonicalID, n.g)
	if err != nil {
		return Topology{}, err
	}
	t.Demands = &Demands{m: m}
	return t, nil
}

// knownTopologies renders the full topology inventory for error
// messages, cached for the same hot-path reason as namedTopologies
// (the per-call version re-sorted the name list on every bad request).
var knownTopologies = sync.OnceValue(func() string {
	names := append([]string(nil), namedTopologies()...)
	sort.Strings(names)
	return strings.Join(append(names, specNames(docsOf(topologySpecs))...), ", ")
})

// demandSpecs are the single-matrix demand generators. Their builders
// take the network the demands are for.
var demandSpecs = []specEntry[*Network, *Demands]{
	{
		name:    "ft",
		summary: "Fortz-Thorup synthetic demands: D(s,t) = O_s * I_t * C_st with uniform random factors.",
		params: []ParamDoc{
			{Name: "seed", Default: "1", Doc: "generator seed"},
		},
		build: func(a *specArgs, n *Network) (*Demands, error) {
			seed := a.int("seed")
			return built(a, func() (*Demands, error) { return FortzThorupDemands(int64(seed), n) })
		},
	},
	{
		name:    "gravity",
		summary: "Gravity model over log-normal synthetic per-node volumes, normalized to total network capacity.",
		params: []ParamDoc{
			{Name: "seed", Default: "1", Doc: "volume seed"},
			{Name: "sigma", Default: "0.5", Doc: "log-normal volume spread"},
		},
		build: func(a *specArgs, n *Network) (*Demands, error) {
			seed, sigma := a.int("seed"), a.float("sigma")
			return built(a, func() (*Demands, error) { return gravityDemands(n, seed, sigma) })
		},
	},
	{
		name:    "uniform",
		summary: "Volume v between every ordered node pair.",
		params: []ParamDoc{
			{Name: "v", Default: "1", Doc: "per-pair volume"},
		},
		build: func(a *specArgs, n *Network) (*Demands, error) {
			v := a.float("v")
			return built(a, func() (*Demands, error) {
				m, err := traffic.UniformMesh(n.NumNodes(), v)
				if err != nil {
					return nil, err
				}
				return &Demands{m: m}, nil
			})
		},
	},
	{
		name:    "none",
		summary: "No demands (topology only).",
		aliases: []string{""},
		build:   func(*specArgs, *Network) (*Demands, error) { return nil, nil },
	},
}

// sequenceSpecs are the temporal demand-sequence generators: a base
// matrix swept through a day cycle (see diurnal).
var sequenceSpecs = []specEntry[*Network, []DemandStep]{
	{
		name:    "gravity-diurnal",
		summary: "Gravity matrix swept through a sinusoidal day cycle, optional hotspot burst in the middle third.",
		params: []ParamDoc{
			{Name: "seed", Default: "1", Doc: "volume and hotspot seed"},
			{Name: "sigma", Default: "0.5", Doc: "log-normal volume spread"},
			{Name: "steps", Default: "24", Doc: "steps per cycle"},
			{Name: "peak", Default: "1", Doc: "peak multiplier (midday)"},
			{Name: "trough", Default: "0.2", Doc: "trough multiplier (midnight)"},
			{Name: "hotspots", Default: "0", Doc: "boosted source-destination pairs (0 disables the burst)"},
			{Name: "boost", Default: "4", Doc: "volume multiplier on hotspot pairs during the burst"},
		},
		build: func(a *specArgs, n *Network) ([]DemandStep, error) {
			seed, sigma := a.int("seed"), a.float("sigma")
			return diurnal(a, seed, func() (*Demands, error) { return gravityDemands(n, seed, sigma) })
		},
	},
	{
		name:    "ft-diurnal",
		summary: "Fortz-Thorup matrix swept through the same diurnal cycle and optional hotspot burst.",
		params: []ParamDoc{
			{Name: "seed", Default: "1", Doc: "demand and hotspot seed"},
			{Name: "steps", Default: "24", Doc: "steps per cycle"},
			{Name: "peak", Default: "1", Doc: "peak multiplier (midday)"},
			{Name: "trough", Default: "0.2", Doc: "trough multiplier (midnight)"},
			{Name: "hotspots", Default: "0", Doc: "boosted source-destination pairs (0 disables the burst)"},
			{Name: "boost", Default: "4", Doc: "volume multiplier on hotspot pairs during the burst"},
		},
		build: func(a *specArgs, n *Network) ([]DemandStep, error) {
			seed := a.int("seed")
			return diurnal(a, seed, func() (*Demands, error) { return FortzThorupDemands(int64(seed), n) })
		},
	},
}

// gravityDemands is the "gravity" spec's matrix: the gravity model over
// seeded log-normal volumes, normalized to the network's capacity.
func gravityDemands(n *Network, seed int, sigma float64) (*Demands, error) {
	vols := traffic.SyntheticVolumes(int64(seed), n.NumNodes(), sigma)
	return GravityDemands(n, vols, n.TotalCapacity())
}

// ResolveDemands resolves a demand-generator spec for the network:
//
//   - "ft" / "ft:seed=N" — Fortz-Thorup synthetic demands
//   - "gravity" / "gravity:seed=N,sigma=S" — gravity model over
//     log-normal synthetic per-node volumes, normalized to the total
//     network capacity
//   - "uniform" / "uniform:v=V" — volume V between every ordered pair
//   - "none" — no demands (nil)
//
// Absolute scale is irrelevant for sweep use: the Grid's Loads axis
// rescales to target network loads.
func ResolveDemands(spec string, n *Network) (*Demands, error) {
	e, a, err := lookup(demandSpecs, spec)
	switch {
	case err != nil:
		return nil, err
	case e != nil:
		return e.resolve(a, n)
	case find(sequenceSpecs, a.name) != nil:
		return nil, fmt.Errorf("%w: %q is a temporal demand sequence, not a single matrix — use it as a Suite demand spec or resolve it with ResolveDemandSequence", ErrBadInput, spec)
	}
	return nil, fmt.Errorf("%w: unknown demand generator %q%s (known: %s; sequences: %s)",
		ErrBadInput, spec, suggest(a.name, append(names(demandSpecs), names(sequenceSpecs)...)),
		inventory(demandSpecs), inventory(sequenceSpecs))
}

// ResolveDemandSequence resolves a temporal demand-sequence spec for
// the network into its labeled steps:
//
//   - "gravity-diurnal" / "gravity-diurnal:seed=N,sigma=S,steps=K,
//     peak=P,trough=T,hotspots=H,boost=B" — the gravity matrix of
//     "gravity:seed=N,sigma=S" swept through a sinusoidal day cycle of
//     K steps between multipliers T (step 0, midnight) and P (midday);
//     when H > 0, H random source-destination pairs are boosted by
//     factor B during the middle third of the cycle.
//   - "ft-diurnal:..." — the same cycle over a Fortz-Thorup matrix.
//
// The second return is false (with a nil error) whenever the spec's
// name is not a sequence generator — an ordinary single-matrix
// generator or a typo alike; callers fall back to ResolveDemands,
// which reports unknown names with the full spec inventory. An error
// is returned only for malformed specs and sequence specs with bad
// parameters.
func ResolveDemandSequence(spec string, n *Network) ([]DemandStep, bool, error) {
	e, a, err := lookup(sequenceSpecs, spec)
	if err != nil || e == nil {
		return nil, false, err
	}
	steps, err := e.resolve(a, n)
	if err != nil {
		return nil, false, err
	}
	return steps, true, nil
}

// diurnal finishes a sequence spec: the base matrix swept through the
// spec's day cycle, boosted by its hotspot burst when it has one.
func diurnal(a *specArgs, seed int, base func() (*Demands, error)) ([]DemandStep, error) {
	steps, peak, trough := a.int("steps"), a.float("peak"), a.float("trough")
	hotspots, boost := a.int("hotspots"), a.float("boost")
	d, err := built(a, base)
	if err != nil {
		return nil, err
	}
	seq, err := traffic.Diurnal(d.m, steps, peak, trough)
	if err != nil {
		return nil, badSpec(a.spec, err)
	}
	// After the cycle, whose own errors are reported first.
	a.check(hotspots >= 0, "hotspots=%d must be >= 0", hotspots)
	if hotspots > 0 {
		if seq, err = traffic.Hotspots(seq, int64(seed), hotspots, boost); err != nil {
			return nil, badSpec(a.spec, err)
		}
	}
	out := make([]DemandStep, len(seq))
	for i, st := range seq {
		out[i] = DemandStep{Label: st.Label, Demands: &Demands{m: st.M}}
	}
	return out, nil
}

// specEntry declares one registry spec once: its catalog entry (name,
// summary, parameters with their defaults) and its builder. In is what
// the resolver hands every builder of the table (the network for
// demands, the default iteration budget for routers).
type specEntry[In, Out any] struct {
	name, summary string
	params        []ParamDoc
	// aliases are further names the spec resolves under.
	aliases []string
	// build resolves a spec that lookup parsed against params (see
	// resolve).
	build func(a *specArgs, in In) (Out, error)
}

// resolve runs the entry's builder on args from lookup. The first bad
// parameter the builder read wins over whatever it built.
func (e *specEntry[In, Out]) resolve(a *specArgs, in In) (Out, error) {
	out, err := e.build(a, in)
	if a.err != nil {
		err = a.err
	}
	if err != nil {
		var zero Out
		return zero, err
	}
	return out, nil
}

// find returns the table's entry named name (or aliased to it), nil
// when there is none.
func find[In, Out any](table []specEntry[In, Out], name string) *specEntry[In, Out] {
	for i := range table {
		if table[i].name == name || slices.Contains(table[i].aliases, name) {
			return &table[i]
		}
	}
	return nil
}

// lookup parses spec and finds the entry its name selects, rejecting
// any parameter the entry does not document. A nil entry with a nil
// error means no entry has the name; args still carries the parsed name
// and parameters for the caller's fallback.
func lookup[In, Out any](table []specEntry[In, Out], spec string) (*specEntry[In, Out], *specArgs, error) {
	name, params, err := parseSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	a := &specArgs{spec: spec, name: name, given: params}
	e := find(table, name)
	if e == nil {
		return nil, a, nil
	}
	a.params = e.params
	allowed := make([]string, len(e.params))
	for i, p := range e.params {
		allowed[i] = p.Name
	}
	return e, a, onlyParams(spec, params, allowed...)
}

// docsOf lists the table's catalog entries, copied so no caller can
// edit the defaults the parser reads.
func docsOf[In, Out any](table []specEntry[In, Out]) []SpecDoc {
	out := make([]SpecDoc, len(table))
	for i, e := range table {
		out[i] = SpecDoc{Name: e.name, Summary: e.summary, Params: slices.Clone(e.params)}
	}
	return out
}

// names lists the table's spec names followed by their aliases: what
// suggest compares a typo against. The blank alias is no suggestion.
func names[In, Out any](table []specEntry[In, Out]) []string {
	var out, aliases []string
	for _, e := range table {
		out = append(out, e.name)
		for _, al := range e.aliases {
			if al != "" {
				aliases = append(aliases, al)
			}
		}
	}
	return append(out, aliases...)
}

// inventory renders the table's specs for an unknown-name error.
func inventory[In, Out any](table []specEntry[In, Out]) string {
	return strings.Join(specNames(docsOf(table)), ", ")
}

// specArgs is a spec parsed against its entry, as the entry's builder
// reads it. Reading a parameter the spec omits yields its documented
// default: a numeric default parses, and a word default ("auto",
// "required", "inferred", "all", "hill", "ospf-ls", "off") reads as the
// zero value, which the builder maps to the documented behaviour. The
// first bad value read, or failed check, is kept in err, which resolve
// returns in place of whatever the builder built; a builder with real
// work to do reads all of its parameters and returns err first (see
// built and generated).
type specArgs struct {
	spec, name string
	given      map[string]string
	params     []ParamDoc
	err        error
}

// value returns the spec's value of key and true, or the documented
// default and false when the spec omits it.
func (a *specArgs) value(key string) (string, bool) {
	if v, ok := a.given[key]; ok {
		return v, true
	}
	for _, p := range a.params {
		if p.Name == key {
			return p.Default, false
		}
	}
	panic(fmt.Sprintf("spef: the builder of spec %q reads undocumented parameter %q", a.name, key))
}

// set reports whether the spec gives key.
func (a *specArgs) set(key string) bool {
	_, ok := a.given[key]
	return ok
}

// documents reports whether the entry documents key.
func (a *specArgs) documents(key string) bool {
	return slices.ContainsFunc(a.params, func(p ParamDoc) bool { return p.Name == key })
}

// int reads an integer parameter.
func (a *specArgs) int(key string) int {
	v, given := a.value(key)
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		if given {
			a.fail(fmt.Errorf("%w: parameter %s=%q is not an integer", ErrBadInput, key, v))
		}
		return 0
	}
	return int(n)
}

// float reads a float parameter, which must be finite.
func (a *specArgs) float(key string) float64 {
	v, given := a.value(key)
	f, err := strconv.ParseFloat(v, 64)
	switch {
	case err == nil && !math.IsNaN(f) && !math.IsInf(f, 0):
		return f
	case !given:
	case err != nil:
		a.fail(fmt.Errorf("%w: parameter %s=%q is not a number", ErrBadInput, key, v))
	default:
		a.fail(fmt.Errorf("%w: parameter %s=%q is not a finite number", ErrBadInput, key, v))
	}
	return 0
}

// word reads a word parameter: the spec's value, or "" when omitted.
func (a *specArgs) word(key string) string {
	if v, given := a.value(key); given {
		return v
	}
	return ""
}

// check records a bad-value error for the spec unless ok.
func (a *specArgs) check(ok bool, format string, args ...any) {
	if !ok {
		a.fail(fmt.Errorf("%w: spec %q: %s", ErrBadInput, a.spec, fmt.Sprintf(format, args...)))
	}
}

func (a *specArgs) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// built finishes a builder that read its parameters: the first bad one,
// else build's result, its rejection of the values reported as bad
// input.
func built[T any](a *specArgs, build func() (T, error)) (T, error) {
	if a.err != nil {
		var zero T
		return zero, a.err
	}
	out, err := build()
	return out, badSpec(a.spec, err)
}

// parseSpec splits "name:key=val,key=val" into its name and parameters.
// A key given twice is bad input.
func parseSpec(spec string) (string, map[string]string, error) {
	name, rest, has := strings.Cut(strings.TrimSpace(spec), ":")
	name = strings.ToLower(strings.TrimSpace(name))
	params := map[string]string{}
	if !has {
		return name, params, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok || strings.TrimSpace(k) == "" {
			return "", nil, fmt.Errorf("%w: malformed parameter %q in spec %q (want key=value)", ErrBadInput, kv, spec)
		}
		k = strings.ToLower(strings.TrimSpace(k))
		if _, dup := params[k]; dup {
			return "", nil, fmt.Errorf("%w: parameter %q given twice in spec %q", ErrBadInput, k, spec)
		}
		params[k] = strings.TrimSpace(v)
	}
	return name, params, nil
}

// badSpec reports a generator's, demand constructor's or importer's
// rejection of the values a spec carries as ErrBadInput, keeping its
// text. Errors that already are ErrBadInput, and nil, pass through.
func badSpec(spec string, err error) error {
	if err == nil || errors.Is(err, ErrBadInput) {
		return err
	}
	return fmt.Errorf("%w: spec %q: %v", ErrBadInput, spec, err)
}

// onlyParams rejects unknown spec parameters so typos fail loudly,
// with a did-you-mean hint when the key is a small edit away from an
// allowed one ("ospf-ls:iter=..." suggests iters). Keys are reported in
// sorted order so the error is deterministic for multi-typo specs.
func onlyParams(spec string, params map[string]string, allowed ...string) error {
	var unknown []string
	for k := range params {
		if !slices.Contains(allowed, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	k := unknown[0]
	if len(allowed) == 0 {
		return fmt.Errorf("%w: spec %q takes no parameters (got %q)", ErrBadInput, spec, k)
	}
	return fmt.Errorf("%w: unknown parameter %q in spec %q%s (allowed: %s)",
		ErrBadInput, k, spec, suggest(k, allowed), strings.Join(allowed, ", "))
}
