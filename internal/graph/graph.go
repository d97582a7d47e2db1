package graph

import (
	"errors"
	"fmt"
	"math"
)

// Link is a directed, capacitated edge.
type Link struct {
	// ID is the link's dense index within its Graph.
	ID int
	// From is the tail node.
	From int
	// To is the head node.
	To int
	// Cap is the link capacity in traffic units (must be positive).
	Cap float64
}

// Graph is a directed multigraph with capacitated links.
// The zero value is an empty graph; use New or AddNode to populate it.
type Graph struct {
	names []string
	links []Link
	out   [][]int
	in    [][]int
}

// ErrBadLink reports an attempt to add a malformed link.
var ErrBadLink = errors.New("graph: bad link")

// New returns a graph with n unnamed nodes and no links.
func New(n int) *Graph {
	g := &Graph{
		names: make([]string, n),
		out:   make([][]int, n),
		in:    make([][]int, n),
	}
	return g
}

// AddNode appends a node with the given name and returns its ID.
func (g *Graph) AddNode(name string) int {
	g.names = append(g.names, name)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return len(g.names) - 1
}

// AddLink adds a directed link from -> to with the given capacity and
// returns its ID. Self-loops, out-of-range endpoints, and non-positive
// capacities are rejected.
func (g *Graph) AddLink(from, to int, capacity float64) (int, error) {
	switch {
	case from < 0 || from >= len(g.names):
		return 0, fmt.Errorf("%w: tail node %d out of range", ErrBadLink, from)
	case to < 0 || to >= len(g.names):
		return 0, fmt.Errorf("%w: head node %d out of range", ErrBadLink, to)
	case from == to:
		return 0, fmt.Errorf("%w: self-loop at node %d", ErrBadLink, from)
	case !(capacity > 0) || math.IsInf(capacity, 1):
		return 0, fmt.Errorf("%w: capacity %v must be positive and finite", ErrBadLink, capacity)
	}
	id := len(g.links)
	g.links = append(g.links, Link{ID: id, From: from, To: to, Cap: capacity})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id, nil
}

// AddDuplex adds a pair of opposite directed links with the same capacity
// and returns their IDs (forward, reverse).
func (g *Graph) AddDuplex(a, b int, capacity float64) (int, int, error) {
	fwd, err := g.AddLink(a, b, capacity)
	if err != nil {
		return 0, 0, err
	}
	rev, err := g.AddLink(b, a, capacity)
	if err != nil {
		return 0, 0, err
	}
	return fwd, rev, nil
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumLinks returns the number of directed links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Link returns the link with the given ID.
func (g *Graph) Link(id int) Link { return g.links[id] }

// Links returns a copy of the link table.
func (g *Graph) Links() []Link {
	out := make([]Link, len(g.links))
	copy(out, g.links)
	return out
}

// Name returns the node's name (possibly empty).
func (g *Graph) Name(node int) string { return g.names[node] }

// SetName sets the node's name.
func (g *Graph) SetName(node int, name string) { g.names[node] = name }

// NodeByName returns the first node with the given name.
func (g *Graph) NodeByName(name string) (int, bool) {
	for i, n := range g.names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// OutLinks returns the IDs of links leaving node.
// The returned slice must not be modified.
func (g *Graph) OutLinks(node int) []int { return g.out[node] }

// InLinks returns the IDs of links entering node.
// The returned slice must not be modified.
func (g *Graph) InLinks(node int) []int { return g.in[node] }

// FindLink returns the ID of the first link from -> to.
func (g *Graph) FindLink(from, to int) (int, bool) {
	for _, id := range g.out[from] {
		if g.links[id].To == to {
			return id, true
		}
	}
	return 0, false
}

// Capacities returns the per-link capacity vector indexed by link ID.
func (g *Graph) Capacities() []float64 {
	caps := make([]float64, len(g.links))
	for i, l := range g.links {
		caps[i] = l.Cap
	}
	return caps
}

// TotalCapacity returns the sum of all link capacities.
func (g *Graph) TotalCapacity() float64 {
	var sum float64
	for _, l := range g.links {
		sum += l.Cap
	}
	return sum
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		names: append([]string(nil), g.names...),
		links: append([]Link(nil), g.links...),
		out:   make([][]int, len(g.out)),
		in:    make([][]int, len(g.in)),
	}
	for i := range g.out {
		c.out[i] = append([]int(nil), g.out[i]...)
	}
	for i := range g.in {
		c.in[i] = append([]int(nil), g.in[i]...)
	}
	return c
}

// WithCapacities returns a clone of the graph whose link capacities are
// replaced by caps (indexed by link ID). Used by capacity-inflation
// continuation in the convex flow solvers.
func (g *Graph) WithCapacities(caps []float64) (*Graph, error) {
	if len(caps) != len(g.links) {
		return nil, fmt.Errorf("%w: got %d capacities for %d links", ErrBadLink, len(caps), len(g.links))
	}
	c := g.Clone()
	for i := range c.links {
		if !(caps[i] > 0) || math.IsInf(caps[i], 1) {
			return nil, fmt.Errorf("%w: capacity %v for link %d", ErrBadLink, caps[i], i)
		}
		c.links[i].Cap = caps[i]
	}
	return c, nil
}

// DuplexPairs returns the [forward, reverse] link-ID pairs of the
// graph: links matched with an opposite-direction partner, each link
// appearing in at most one pair. Unpaired one-way links are omitted.
func (g *Graph) DuplexPairs() [][2]int {
	var out [][2]int
	seen := make(map[int]bool, len(g.links))
	for _, l := range g.links {
		if seen[l.ID] {
			continue
		}
		for _, rev := range g.out[l.To] {
			if g.links[rev].To == l.From && !seen[rev] {
				out = append(out, [2]int{l.ID, rev})
				seen[l.ID], seen[rev] = true, true
				break
			}
		}
	}
	return out
}

// WithoutLinks returns a copy of the graph with the given links removed
// (the single-link-failure transform). Surviving links are renumbered
// densely; keep[newID] = oldID maps the new link IDs back to the
// original ones so per-link vectors can be projected onto the survivors.
func (g *Graph) WithoutLinks(drop ...int) (*Graph, []int, error) {
	dropped := make([]bool, len(g.links))
	kept := len(g.links)
	for _, id := range drop {
		if id < 0 || id >= len(g.links) {
			return nil, nil, fmt.Errorf("%w: link %d out of range", ErrBadLink, id)
		}
		if !dropped[id] {
			dropped[id] = true
			kept--
		}
	}
	g2 := &Graph{
		names: append([]string(nil), g.names...),
		links: make([]Link, 0, kept),
		out:   make([][]int, len(g.names)),
		in:    make([][]int, len(g.names)),
	}
	// Every node's adjacency lists are sized exactly and carved from one
	// array, so the copy costs a handful of allocations, not a growing
	// append per node and link. Each window is cap-limited: a later
	// AddLink copies it instead of overwriting the next one.
	adj := make([]int, 0, 2*kept)
	carve := func(ids []int) []int {
		k := 0
		for _, id := range ids {
			if !dropped[id] {
				k++
			}
		}
		w := adj[len(adj) : len(adj) : len(adj)+k]
		adj = adj[:len(adj)+k]
		return w
	}
	for u := range g.names {
		g2.out[u] = carve(g.out[u])
		g2.in[u] = carve(g.in[u])
	}
	keep := make([]int, 0, kept)
	for _, l := range g.links {
		if dropped[l.ID] {
			continue
		}
		if _, err := g2.AddLink(l.From, l.To, l.Cap); err != nil {
			return nil, nil, err
		}
		keep = append(keep, l.ID)
	}
	return g2, keep, nil
}

// Validate checks structural invariants (index consistency, positive
// capacities). It returns nil for a well-formed graph.
func (g *Graph) Validate() error {
	if len(g.out) != len(g.names) || len(g.in) != len(g.names) {
		return errors.New("graph: adjacency/name table size mismatch")
	}
	for i, l := range g.links {
		if l.ID != i {
			return fmt.Errorf("graph: link %d has stored ID %d", i, l.ID)
		}
		if l.From < 0 || l.From >= len(g.names) || l.To < 0 || l.To >= len(g.names) {
			return fmt.Errorf("graph: link %d endpoints out of range", i)
		}
		if l.From == l.To {
			return fmt.Errorf("graph: link %d is a self-loop", i)
		}
		if !(l.Cap > 0) {
			return fmt.Errorf("graph: link %d has non-positive capacity", i)
		}
	}
	seen := make(map[int]bool, len(g.links))
	for u := range g.out {
		for _, id := range g.out[u] {
			if id < 0 || id >= len(g.links) || g.links[id].From != u {
				return fmt.Errorf("graph: out-adjacency of node %d references bad link %d", u, id)
			}
			if seen[id] {
				return fmt.Errorf("graph: link %d appears twice in out-adjacency", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != len(g.links) {
		return errors.New("graph: some links missing from out-adjacency")
	}
	return nil
}
