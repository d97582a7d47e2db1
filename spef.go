package spef

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// ErrBadInput reports invalid arguments to the public API.
var ErrBadInput = errors.New("spef: bad input")

// Network is a directed capacitated network. Links are directed;
// AddDuplex adds both directions of a physical cable.
type Network struct {
	g *graph.Graph
	// On a WithoutLinks copy, keep[id] is the parent's ID of surviving
	// link id and parentLinks the parent's link count (see linkVector).
	keep        []int
	parentLinks int
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{g: graph.New(0)}
}

// AddNode appends a node with the given name and returns its ID.
func (n *Network) AddNode(name string) int {
	return n.g.AddNode(name)
}

// AddLink adds a directed link and returns its ID.
func (n *Network) AddLink(from, to int, capacity float64) (int, error) {
	return n.g.AddLink(from, to, capacity)
}

// AddDuplex adds both directions of a physical cable and returns the two
// link IDs.
func (n *Network) AddDuplex(a, b int, capacity float64) (int, int, error) {
	return n.g.AddDuplex(a, b, capacity)
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return n.g.NumNodes() }

// NumLinks returns the directed-link count.
func (n *Network) NumLinks() int { return n.g.NumLinks() }

// NodeName returns the node's name.
func (n *Network) NodeName(node int) string { return n.g.Name(node) }

// NodeByName returns the first node with the given name.
func (n *Network) NodeByName(name string) (int, bool) { return n.g.NodeByName(name) }

// Link returns a link's endpoints and capacity.
func (n *Network) Link(id int) (from, to int, capacity float64) {
	l := n.g.Link(id)
	return l.From, l.To, l.Cap
}

// TotalCapacity returns the sum of all link capacities.
func (n *Network) TotalCapacity() float64 { return n.g.TotalCapacity() }

// DuplexPairs returns the [forward, reverse] link-ID pairs of the
// network: links matched with an opposite-direction partner, each link
// in at most one pair. Unpaired one-way links are omitted.
func (n *Network) DuplexPairs() [][2]int { return n.g.DuplexPairs() }

// WithoutLinks returns a copy of the network with the given links
// removed — the failure transform of the Scenario engine. Surviving
// links are renumbered densely; keep[newID] = oldID maps the new link
// IDs back to the originals.
//
// The copy reads per-link vectors of its parent's length (the
// weights of OSPF(w), PEFT(w) and SPEFWithWeights, and WithQ's q) as
// indexed by the parent's link IDs and projects them onto the
// survivors: the stale-weight window of a deployment between a failure
// and re-optimization. A vector of the copy's own length is read as its
// own, which is how weights extracted on the copy replay there; so a
// parent vector short by exactly the number of removed links is read
// that way too. Any other length is left to the router to reject. Only
// the immediate parent's length is projected: a copy of a copy does not
// read the grandparent's vectors.
func (n *Network) WithoutLinks(ids ...int) (keptNet *Network, keep []int, err error) {
	g2, keep, err := n.g.WithoutLinks(ids...)
	if err != nil {
		return nil, nil, err
	}
	return &Network{g: g2, keep: keep, parentLinks: n.NumLinks()}, slices.Clone(keep), nil
}

// linkVector reads a per-link vector on n. On a WithoutLinks copy, a
// vector of the parent's length is projected through keep onto the
// surviving links; any other vector is returned unchanged, for its
// consumer to check against n's link count.
func (n *Network) linkVector(v []float64) []float64 {
	if n.keep == nil || len(v) != n.parentLinks {
		return v
	}
	out := make([]float64, len(n.keep))
	for id, parent := range n.keep {
		out[id] = v[parent]
	}
	return out
}

// Validate checks structural invariants.
func (n *Network) Validate() error { return n.g.Validate() }

// Abilene returns the 11-node, 28-link Abilene research backbone
// (10 Gbps links; capacities in Gbps).
func Abilene() *Network { return &Network{g: topo.Abilene()} }

// Cernet2 returns the 20-node, 44-link CERNET2 backbone used in the
// paper's evaluation (10 Gbps trunks, 2.5 Gbps standard links).
func Cernet2() *Network { return &Network{g: topo.Cernet2()} }

// Fig1Example returns the paper's 4-node illustration network together
// with its demands (1 unit for pair (1,3), 0.9 for (3,4)).
func Fig1Example() (*Network, *Demands, error) {
	n := &Network{g: topo.Fig1()}
	d, err := demandsFrom(n, topo.Fig1Demands())
	return n, d, err
}

// SimpleExample returns the paper's Fig. 4 seven-node example network
// with its four 4-unit demands.
func SimpleExample() (*Network, *Demands, error) {
	n := &Network{g: topo.Simple()}
	d, err := demandsFrom(n, topo.SimpleDemands())
	return n, d, err
}

// RandomNetwork generates a connected random network with unit
// capacities (seeded, deterministic).
func RandomNetwork(seed int64, nodes, directedLinks int) (*Network, error) {
	g, err := topo.Random(seed, nodes, directedLinks)
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// HierarchicalNetwork generates a GT-ITM style 2-level network: local
// links of capacity 1, long-distance links of capacity 5.
func HierarchicalNetwork(seed int64, nodes, clusters, directedLinks int) (*Network, error) {
	g, err := topo.Hier2Level(seed, nodes, clusters, directedLinks)
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// WaxmanNetwork generates a connected Waxman random geometric network:
// nodes uniform in the unit square, pairs linked with probability
// alpha * exp(-d / (beta * L)) where L is the maximum pairwise
// distance. Unit capacities; seeded and deterministic.
func WaxmanNetwork(seed int64, nodes int, alpha, beta float64) (*Network, error) {
	g, err := topo.Waxman(seed, nodes, alpha, beta)
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// BarabasiAlbertNetwork generates a connected scale-free network by
// preferential attachment: every new node links to m distinct existing
// nodes chosen proportionally to degree. Unit capacities; seeded and
// deterministic.
func BarabasiAlbertNetwork(seed int64, nodes, m int) (*Network, error) {
	g, err := topo.BarabasiAlbert(seed, nodes, m)
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// FatTreeNetwork generates the canonical k-ary fat-tree data-center
// fabric (k even): (k/2)^2 core switches, k pods of k/2 aggregation
// and k/2 edge switches, all links unit-capacity duplex pairs.
func FatTreeNetwork(k int) (*Network, error) {
	g, err := topo.FatTree(k)
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// GridNetwork generates a rows x cols lattice with unit-capacity
// duplex links between neighbors; wrap closes it into a torus.
func GridNetwork(rows, cols int, wrap bool) (*Network, error) {
	g, err := topo.GridNet(rows, cols, wrap)
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// Demands is a traffic matrix over a network's nodes.
type Demands struct {
	m *traffic.Matrix
}

// checkDemands rejects demands sized for a network other than n (and a
// nil network or demand set). Every public entry point that takes
// demands together with a network, or with routes computed on one,
// calls it before indexing either by the other's node IDs.
func checkDemands(n *Network, d *Demands) error {
	if n == nil || d == nil {
		return fmt.Errorf("%w: nil network or demands", ErrBadInput)
	}
	if got, want := d.m.Size(), n.NumNodes(); got != want {
		return fmt.Errorf("%w: demands over %d nodes for a %d-node network", ErrBadInput, got, want)
	}
	return nil
}

// NewDemands returns an empty demand set for the network.
func NewDemands(n *Network) *Demands {
	return &Demands{m: traffic.NewMatrix(n.NumNodes())}
}

func demandsFrom(n *Network, list []traffic.Demand) (*Demands, error) {
	m, err := traffic.FromDemands(n.NumNodes(), list)
	if err != nil {
		return nil, err
	}
	return &Demands{m: m}, nil
}

// Add accumulates volume onto the (src, dst) demand.
func (d *Demands) Add(src, dst int, volume float64) error {
	return d.m.Add(src, dst, volume)
}

// At returns the (src, dst) demand volume.
func (d *Demands) At(src, dst int) float64 { return d.m.At(src, dst) }

// Total returns the aggregate demand volume.
func (d *Demands) Total() float64 { return d.m.Total() }

// NetworkLoad returns total demand over total capacity.
func (d *Demands) NetworkLoad(n *Network) float64 { return d.m.NetworkLoad(n.g) }

// ScaledToLoad returns a copy scaled so that NetworkLoad equals load.
func (d *Demands) ScaledToLoad(n *Network, load float64) (*Demands, error) {
	m, err := d.m.ScaledToLoad(n.g, load)
	if err != nil {
		return nil, err
	}
	return &Demands{m: m}, nil
}

// Scaled returns a copy with every volume multiplied by factor.
func (d *Demands) Scaled(factor float64) (*Demands, error) {
	m, err := d.m.Scaled(factor)
	if err != nil {
		return nil, err
	}
	return &Demands{m: m}, nil
}

// Clone returns a deep copy.
func (d *Demands) Clone() *Demands { return &Demands{m: d.m.Clone()} }

// FortzThorupDemands generates the synthetic demand matrix of Fortz and
// Thorup (seeded, deterministic): D(s,t) = O_s * I_t * C_st with uniform
// random factors.
func FortzThorupDemands(seed int64, n *Network) (*Demands, error) {
	m, err := traffic.FortzThorup(seed, n.NumNodes(), 1)
	if err != nil {
		return nil, err
	}
	return &Demands{m: m}, nil
}

// GravityDemands builds a gravity-model matrix from per-node volumes
// normalized to the given total.
func GravityDemands(n *Network, volumes []float64, total float64) (*Demands, error) {
	if len(volumes) != n.NumNodes() {
		return nil, fmt.Errorf("%w: got %d volumes for %d nodes", ErrBadInput, len(volumes), n.NumNodes())
	}
	m, err := traffic.Gravity(volumes, total)
	if err != nil {
		return nil, err
	}
	return &Demands{m: m}, nil
}
