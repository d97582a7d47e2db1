package topo

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/graph"
)

// ErrBadParams reports impossible generator parameters.
var ErrBadParams = errors.New("topo: bad generator parameters")

// Random generates a connected random network with n nodes and exactly
// directedLinks directed links (must be even: every edge is a duplex
// pair), all with capacity 1 — the paper's "random topologies" where
// "the probability of having a link between two nodes is a constant
// parameter, and all link capacities are 1 unit". A random spanning tree
// guarantees connectivity; the remaining edges are sampled uniformly.
func Random(seed int64, n, directedLinks int) (*graph.Graph, error) {
	edges := directedLinks / 2
	switch {
	case n < 2:
		return nil, fmt.Errorf("%w: need at least 2 nodes", ErrBadParams)
	case directedLinks%2 != 0:
		return nil, fmt.Errorf("%w: directed link count %d must be even", ErrBadParams, directedLinks)
	case edges < n-1:
		return nil, fmt.Errorf("%w: %d edges cannot connect %d nodes", ErrBadParams, edges, n)
	case edges > n*(n-1)/2:
		return nil, fmt.Errorf("%w: %d edges exceed the complete graph on %d nodes", ErrBadParams, edges, n)
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.SetName(i, fmt.Sprintf("r%d", i))
	}
	used := make(map[[2]int]bool, edges)
	addEdge := func(a, b int, capacity float64) {
		if a > b {
			a, b = b, a
		}
		used[[2]int{a, b}] = true
		mustDuplex(g, a, b, capacity)
	}
	// Random spanning tree: connect each node (in shuffled order) to a
	// random already-connected node.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		addEdge(perm[i], perm[rng.Intn(i)], 1)
	}
	for len(used) < edges {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if used[[2]int{lo, hi}] {
			continue
		}
		addEdge(a, b, 1)
	}
	return g, nil
}

// Hier2Level generates a GT-ITM style 2-level hierarchical network
// (the paper's "2-level" topologies, after Fortz-Thorup): n nodes split
// into the given number of clusters; local access links (within a
// cluster) have capacity 1 and long-distance links (between clusters)
// have capacity 5. Exactly directedLinks directed links are produced.
// Connectivity is guaranteed by a local spanning tree per cluster plus a
// spanning tree over clusters; the rest is sampled with a bias toward
// local links (GT-ITM's denser intra-cluster wiring).
func Hier2Level(seed int64, n, clusters, directedLinks int) (*graph.Graph, error) {
	edges := directedLinks / 2
	switch {
	case n < 2 || clusters < 2 || clusters > n:
		return nil, fmt.Errorf("%w: n=%d clusters=%d", ErrBadParams, n, clusters)
	case directedLinks%2 != 0:
		return nil, fmt.Errorf("%w: directed link count %d must be even", ErrBadParams, directedLinks)
	case edges < n-1:
		return nil, fmt.Errorf("%w: %d edges cannot connect %d nodes", ErrBadParams, edges, n)
	case edges > n*(n-1)/2:
		return nil, fmt.Errorf("%w: %d edges exceed the complete graph on %d nodes", ErrBadParams, edges, n)
	}
	const (
		localCap = 1.0
		longCap  = 5.0
	)
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	cluster := make([]int, n) // node -> cluster index
	for i := 0; i < n; i++ {
		cluster[i] = i * clusters / n
		g.SetName(i, fmt.Sprintf("c%d.%d", cluster[i], i))
	}
	members := make([][]int, clusters)
	for i := 0; i < n; i++ {
		members[cluster[i]] = append(members[cluster[i]], i)
	}
	used := make(map[[2]int]bool, edges)
	addEdge := func(a, b int) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if a == b || used[[2]int{lo, hi}] {
			return false
		}
		used[[2]int{lo, hi}] = true
		capacity := longCap
		if cluster[a] == cluster[b] {
			capacity = localCap
		}
		mustDuplex(g, a, b, capacity)
		return true
	}
	// Local spanning tree in every cluster.
	for _, m := range members {
		perm := rng.Perm(len(m))
		for i := 1; i < len(m); i++ {
			addEdge(m[perm[i]], m[perm[rng.Intn(i)]])
		}
	}
	// Spanning tree over clusters via random representative nodes.
	cperm := rng.Perm(clusters)
	for i := 1; i < clusters; i++ {
		a := members[cperm[i]][rng.Intn(len(members[cperm[i]]))]
		prev := cperm[rng.Intn(i)]
		b := members[prev][rng.Intn(len(members[prev]))]
		addEdge(a, b)
	}
	// Fill the remainder, biased 2:1 toward local links.
	for len(used) < edges {
		if rng.Intn(3) < 2 {
			m := members[rng.Intn(clusters)]
			if len(m) >= 2 {
				addEdge(m[rng.Intn(len(m))], m[rng.Intn(len(m))])
				continue
			}
		}
		addEdge(rng.Intn(n), rng.Intn(n))
	}
	return g, nil
}

// Net bundles a named topology for the Table III registry.
type Net struct {
	ID       string
	Topology string
	G        *graph.Graph
}

// table3 lists the seven evaluation networks of Table III in order, each
// with its builder. Generated networks use fixed seeds.
var table3 = []struct {
	id       string
	topology string
	build    func() (*graph.Graph, error)
}{
	{id: "Abilene", topology: "Backbone", build: func() (*graph.Graph, error) { return Abilene(), nil }},
	{id: "Cernet2", topology: "Backbone", build: func() (*graph.Graph, error) { return Cernet2(), nil }},
	{id: "Hier50a", topology: "2-level", build: func() (*graph.Graph, error) { return Hier2Level(501, 50, 5, 222) }},
	{id: "Hier50b", topology: "2-level", build: func() (*graph.Graph, error) { return Hier2Level(502, 50, 5, 152) }},
	{id: "Rand50a", topology: "Random", build: func() (*graph.Graph, error) { return Random(503, 50, 242) }},
	{id: "Rand50b", topology: "Random", build: func() (*graph.Graph, error) { return Random(504, 50, 230) }},
	{id: "Rand100", topology: "Random", build: func() (*graph.Graph, error) { return Random(505, 100, 392) }},
}

// Table3Networks returns the seven evaluation networks of Table III with
// the paper's exact node and directed-link counts. Generated networks use
// fixed seeds, so the registry is fully deterministic.
func Table3Networks() ([]Net, error) {
	nets := make([]Net, 0, len(table3))
	for i := range table3 {
		n, err := table3Net(i)
		if err != nil {
			return nil, err
		}
		nets = append(nets, n)
	}
	return nets, nil
}

// Table3Network builds only the Table III network whose ID matches id
// case-insensitively; ok is false when none does.
func Table3Network(id string) (n Net, ok bool, err error) {
	for i := range table3 {
		if strings.EqualFold(table3[i].id, id) {
			n, err = table3Net(i)
			return n, err == nil, err
		}
	}
	return Net{}, false, nil
}

// table3Net builds table3[i] afresh.
func table3Net(i int) (Net, error) {
	s := &table3[i]
	g, err := s.build()
	if err != nil {
		return Net{}, fmt.Errorf("topo: building %s: %w", s.id, err)
	}
	return Net{ID: s.id, Topology: s.topology, G: g}, nil
}
