package spef

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/topo"
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
// through ResolveDemandSequence into a time axis. `spef catalog`
// renders the full inventory (see NewCatalog).

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

// RegisteredTopologies lists every named topology in the registry: the
// paper's Table III evaluation set followed by the two worked examples.
func RegisteredTopologies() ([]TopologyInfo, error) {
	nets, err := topo.Table3Networks()
	if err != nil {
		return nil, err
	}
	out := make([]TopologyInfo, 0, len(nets)+2)
	for _, n := range nets {
		out = append(out, TopologyInfo{
			Name:  strings.ToLower(n.ID),
			ID:    n.ID,
			Class: n.Topology,
			Nodes: n.G.NumNodes(),
			Links: n.G.NumLinks(),
		})
	}
	for _, ex := range []struct {
		name, id string
		nodes    func() (*Network, *Demands, error)
	}{
		{name: "fig1", id: "Fig1", nodes: Fig1Example},
		{name: "simple", id: "Simple", nodes: SimpleExample},
	} {
		n, _, err := ex.nodes()
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
	name, params, err := parseSpec(spec)
	if err != nil {
		return Topology{}, err
	}
	// generated finishes a generator case: the generator's rejection of
	// the spec's values is bad input, and its network gets the generic
	// canonical workload.
	generated := func(n *Network, err error) (Topology, error) {
		if err != nil {
			return Topology{}, badSpec(spec, err)
		}
		return canonicalTopology(spec, "", n, withDemands)
	}
	switch name {
	case "fig1":
		return builtinExample(name, params, Fig1Example)
	case "simple":
		return builtinExample(name, params, SimpleExample)
	case "rand":
		if err := onlyParams(spec, params, "n", "links", "seed"); err != nil {
			return Topology{}, err
		}
		seed, nodes, links, err := genParams(params, 242)
		if err != nil {
			return Topology{}, err
		}
		return generated(RandomNetwork(seed, nodes, links))
	case "hier":
		if err := onlyParams(spec, params, "n", "clusters", "links", "seed"); err != nil {
			return Topology{}, err
		}
		seed, nodes, links, err := genParams(params, 222)
		if err != nil {
			return Topology{}, err
		}
		clusters, err := intParam(params, "clusters", 5)
		if err != nil {
			return Topology{}, err
		}
		return generated(HierarchicalNetwork(seed, nodes, int(clusters), links))
	case "waxman":
		if err := onlyParams(spec, params, "n", "alpha", "beta", "seed"); err != nil {
			return Topology{}, err
		}
		seed, err := intParam(params, "seed", 1)
		if err != nil {
			return Topology{}, err
		}
		nodes, err := intParam(params, "n", 50)
		if err != nil {
			return Topology{}, err
		}
		alpha, err := floatParam(params, "alpha", 0.4)
		if err != nil {
			return Topology{}, err
		}
		beta, err := floatParam(params, "beta", 0.2)
		if err != nil {
			return Topology{}, err
		}
		return generated(WaxmanNetwork(seed, int(nodes), alpha, beta))
	case "ba":
		if err := onlyParams(spec, params, "n", "m", "seed"); err != nil {
			return Topology{}, err
		}
		seed, err := intParam(params, "seed", 1)
		if err != nil {
			return Topology{}, err
		}
		nodes, err := intParam(params, "n", 50)
		if err != nil {
			return Topology{}, err
		}
		m, err := intParam(params, "m", 2)
		if err != nil {
			return Topology{}, err
		}
		return generated(BarabasiAlbertNetwork(seed, int(nodes), int(m)))
	case "fattree":
		if err := onlyParams(spec, params, "k"); err != nil {
			return Topology{}, err
		}
		k, err := intParam(params, "k", 4)
		if err != nil {
			return Topology{}, err
		}
		return generated(FatTreeNetwork(int(k)))
	case "grid":
		if err := onlyParams(spec, params, "rows", "cols", "wrap"); err != nil {
			return Topology{}, err
		}
		rows, err := intParam(params, "rows", 5)
		if err != nil {
			return Topology{}, err
		}
		cols, err := intParam(params, "cols", 5)
		if err != nil {
			return Topology{}, err
		}
		wrap, err := intParam(params, "wrap", 0)
		if err != nil {
			return Topology{}, err
		}
		return generated(GridNetwork(int(rows), int(cols), wrap != 0))
	case "zoo", "sndlib":
		return importedTopology(name, spec, params, withDemands)
	}
	nets, err := topo.Table3Networks()
	if err != nil {
		return Topology{}, err
	}
	for _, net := range nets {
		if strings.EqualFold(net.ID, name) {
			if err := onlyParams(spec, params); err != nil {
				return Topology{}, err
			}
			return canonicalTopology(net.ID, net.ID, &Network{g: net.G}, withDemands)
		}
	}
	// The name matched nothing: report the unknown name (with a
	// near-miss suggestion against the bare spec names) rather than
	// whatever parameters rode along with the typo.
	return Topology{}, fmt.Errorf("%w: unknown topology %q%s (known: %s)",
		ErrBadInput, spec, suggest(name, append(namedTopologies(), docNames(topologyGeneratorDocs)...)), knownTopologies())
}

// importedTopology resolves the "zoo:file=..." and "sndlib:file=..."
// importer specs. The topology is named by the file's self-declared
// name, falling back to the file's base name. SNDlib demands, when
// present, become the topology's canonical workload; otherwise (and
// for GraphML, which carries none) the generic synthetic workload
// applies.
func importedTopology(kind, spec string, params map[string]string, withDemands bool) (Topology, error) {
	allowed := []string{"file", "cap"}
	if kind == "zoo" {
		allowed = append(allowed, "unit")
	}
	if err := onlyParams(spec, params, allowed...); err != nil {
		return Topology{}, err
	}
	path, ok := params["file"]
	if !ok || path == "" {
		return Topology{}, fmt.Errorf("%w: spec %q needs file=PATH", ErrBadInput, spec)
	}
	opts := ImportOptions{}
	var err error
	if opts.DefaultCapacity, err = floatParam(params, "cap", 0); err != nil {
		return Topology{}, err
	}
	if _, set := params["cap"]; set && opts.DefaultCapacity <= 0 {
		return Topology{}, fmt.Errorf("%w: spec %q: cap=%v must be positive", ErrBadInput, spec, opts.DefaultCapacity)
	}
	if opts.CapacityUnit, err = floatParam(params, "unit", 0); err != nil {
		return Topology{}, err
	}
	if _, set := params["unit"]; set && opts.CapacityUnit <= 0 {
		return Topology{}, fmt.Errorf("%w: spec %q: unit=%v must be positive", ErrBadInput, spec, opts.CapacityUnit)
	}
	f, err := os.Open(path)
	if err != nil {
		return Topology{}, fmt.Errorf("%w: spec %q: %v", ErrBadInput, spec, err)
	}
	defer f.Close()
	var imp *ImportedNetwork
	if kind == "zoo" {
		imp, err = ReadTopologyZoo(f, opts)
	} else {
		imp, err = ReadSNDlib(f, opts)
	}
	if err != nil {
		return Topology{}, badSpec(spec, err)
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

func builtinExample(name string, params map[string]string, build func() (*Network, *Demands, error)) (Topology, error) {
	if err := onlyParams(name, params); err != nil {
		return Topology{}, err
	}
	n, d, err := build()
	if err != nil {
		return Topology{}, err
	}
	return Topology{Name: name, Network: n, Demands: d}, nil
}

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
	return strings.Join(append(names, specNames(topologyGeneratorDocs)...), ", ")
})

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
	name, params, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	switch name {
	case "none", "":
		if err := onlyParams(spec, params); err != nil {
			return nil, err
		}
		return nil, nil
	case "ft":
		if err := onlyParams(spec, params, "seed"); err != nil {
			return nil, err
		}
		seed, err := intParam(params, "seed", 1)
		if err != nil {
			return nil, err
		}
		d, err := FortzThorupDemands(seed, n)
		return d, badSpec(spec, err)
	case "gravity":
		if err := onlyParams(spec, params, "seed", "sigma"); err != nil {
			return nil, err
		}
		seed, err := intParam(params, "seed", 1)
		if err != nil {
			return nil, err
		}
		sigma, err := floatParam(params, "sigma", 0.5)
		if err != nil {
			return nil, err
		}
		vols := traffic.SyntheticVolumes(seed, n.NumNodes(), sigma)
		d, err := GravityDemands(n, vols, n.TotalCapacity())
		return d, badSpec(spec, err)
	case "uniform":
		if err := onlyParams(spec, params, "v"); err != nil {
			return nil, err
		}
		v, err := floatParam(params, "v", 1)
		if err != nil {
			return nil, err
		}
		m, err := traffic.UniformMesh(n.NumNodes(), v)
		if err != nil {
			return nil, badSpec(spec, err)
		}
		return &Demands{m: m}, nil
	}
	if isSequenceSpec(name) {
		return nil, fmt.Errorf("%w: %q is a temporal demand sequence, not a single matrix — use it as a Suite demand spec or resolve it with ResolveDemandSequence", ErrBadInput, spec)
	}
	inv := demandInventory()
	return nil, fmt.Errorf("%w: unknown demand generator %q%s (known: %s; sequences: %s)",
		ErrBadInput, spec, suggest(name, inv.names), inv.singles, inv.sequences)
}

// demandInventory caches the demand-generator name lists the unknown-
// spec error renders, so a server's bad-request path doesn't rebuild
// and re-join them per request.
var demandInventory = sync.OnceValue(func() (inv struct {
	names              []string
	singles, sequences string
}) {
	inv.names = append(docNames(demandDocs), docNames(sequenceDocs)...)
	inv.singles = strings.Join(specNames(demandDocs), ", ")
	inv.sequences = strings.Join(specNames(sequenceDocs), ", ")
	return inv
})

// isSequenceSpec reports whether name is a temporal demand-sequence
// generator (resolvable by ResolveDemandSequence, not ResolveDemands).
func isSequenceSpec(name string) bool {
	for _, d := range sequenceDocs {
		if d.Name == name {
			return true
		}
	}
	return false
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
// is returned only for sequence specs with bad parameters.
func ResolveDemandSequence(spec string, n *Network) ([]DemandStep, bool, error) {
	name, params, err := parseSpec(spec)
	if err != nil {
		return nil, false, err
	}
	if !isSequenceSpec(name) {
		return nil, false, nil
	}
	var base *Demands
	allowed := []string{"seed", "steps", "peak", "trough", "hotspots", "boost"}
	seed, err := intParam(params, "seed", 1)
	if err != nil {
		return nil, false, err
	}
	switch name {
	case "gravity-diurnal":
		allowed = append(allowed, "sigma")
		if err := onlyParams(spec, params, allowed...); err != nil {
			return nil, false, err
		}
		sigma, err := floatParam(params, "sigma", 0.5)
		if err != nil {
			return nil, false, err
		}
		vols := traffic.SyntheticVolumes(seed, n.NumNodes(), sigma)
		if base, err = GravityDemands(n, vols, n.TotalCapacity()); err != nil {
			return nil, false, badSpec(spec, err)
		}
	case "ft-diurnal":
		if err := onlyParams(spec, params, allowed...); err != nil {
			return nil, false, err
		}
		if base, err = FortzThorupDemands(seed, n); err != nil {
			return nil, false, badSpec(spec, err)
		}
	default:
		// isSequenceSpec and this switch must agree; a sequenceDocs
		// entry without a base-matrix case is a registry bug, not a
		// user error, but fail with an error rather than a nil deref.
		return nil, false, fmt.Errorf("%w: sequence spec %q has no base-matrix builder (registry bug)", ErrBadInput, spec)
	}
	steps, err := intParam(params, "steps", 24)
	if err != nil {
		return nil, false, err
	}
	peak, err := floatParam(params, "peak", 1)
	if err != nil {
		return nil, false, err
	}
	trough, err := floatParam(params, "trough", 0.2)
	if err != nil {
		return nil, false, err
	}
	seq, err := traffic.Diurnal(base.m, int(steps), peak, trough)
	if err != nil {
		return nil, false, badSpec(spec, err)
	}
	hotspots, err := intParam(params, "hotspots", 0)
	if err != nil {
		return nil, false, err
	}
	if hotspots < 0 {
		return nil, false, fmt.Errorf("%w: spec %q: hotspots=%d must be >= 0", ErrBadInput, spec, hotspots)
	}
	if hotspots > 0 {
		boost, err := floatParam(params, "boost", 4)
		if err != nil {
			return nil, false, err
		}
		if seq, err = traffic.Hotspots(seq, seed, int(hotspots), boost); err != nil {
			return nil, false, badSpec(spec, err)
		}
	}
	out := make([]DemandStep, len(seq))
	for i, st := range seq {
		out[i] = DemandStep{Label: st.Label, Demands: &Demands{m: st.M}}
	}
	return out, true, nil
}

// parseSpec splits "name:key=val,key=val" into its name and parameters.
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
		params[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
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
		found := false
		for _, a := range allowed {
			if k == a {
				found = true
				break
			}
		}
		if !found {
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

// genParams reads the shared generator parameters (seed, n, links).
func genParams(params map[string]string, defLinks int64) (seed int64, nodes, links int, err error) {
	seed, err = intParam(params, "seed", 1)
	if err != nil {
		return 0, 0, 0, err
	}
	n, err := intParam(params, "n", 50)
	if err != nil {
		return 0, 0, 0, err
	}
	l, err := intParam(params, "links", defLinks)
	if err != nil {
		return 0, 0, 0, err
	}
	return seed, int(n), int(l), nil
}

func intParam(params map[string]string, key string, def int64) (int64, error) {
	v, ok := params[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: parameter %s=%q is not an integer", ErrBadInput, key, v)
	}
	return n, nil
}

func floatParam(params map[string]string, key string, def float64) (float64, error) {
	v, ok := params[key]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: parameter %s=%q is not a number", ErrBadInput, key, v)
	}
	return f, nil
}
