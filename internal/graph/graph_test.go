package graph

import (
	"errors"
	"slices"
	"testing"
)

func mustLink(t *testing.T, g *Graph, from, to int, capacity float64) int {
	t.Helper()
	id, err := g.AddLink(from, to, capacity)
	if err != nil {
		t.Fatalf("AddLink(%d,%d,%v): %v", from, to, capacity, err)
	}
	return id
}

// fig1 builds the paper's Fig. 1 topology: nodes 1..4 (IDs 0..3), links
// (1,3), (3,4), (1,2), (2,3), all capacity 1 — in the paper's Table I
// order.
func fig1(t *testing.T) *Graph {
	t.Helper()
	g := New(4)
	mustLink(t, g, 0, 2, 1) // (1,3)
	mustLink(t, g, 2, 3, 1) // (3,4)
	mustLink(t, g, 0, 1, 1) // (1,2)
	mustLink(t, g, 1, 2, 1) // (2,3)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestAddLinkErrors(t *testing.T) {
	g := New(2)
	tests := []struct {
		name     string
		from, to int
		capacity float64
	}{
		{name: "tail out of range", from: -1, to: 1, capacity: 1},
		{name: "head out of range", from: 0, to: 2, capacity: 1},
		{name: "self loop", from: 1, to: 1, capacity: 1},
		{name: "zero capacity", from: 0, to: 1, capacity: 0},
		{name: "negative capacity", from: 0, to: 1, capacity: -3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := g.AddLink(tt.from, tt.to, tt.capacity); !errors.Is(err, ErrBadLink) {
				t.Fatalf("AddLink(%d,%d,%v) error = %v, want ErrBadLink", tt.from, tt.to, tt.capacity, err)
			}
		})
	}
}

func TestGraphBasics(t *testing.T) {
	g := fig1(t)
	if got := g.NumNodes(); got != 4 {
		t.Errorf("NumNodes = %d, want 4", got)
	}
	if got := g.NumLinks(); got != 4 {
		t.Errorf("NumLinks = %d, want 4", got)
	}
	if got := g.TotalCapacity(); got != 4 {
		t.Errorf("TotalCapacity = %v, want 4", got)
	}
	if id, ok := g.FindLink(0, 2); !ok || id != 0 {
		t.Errorf("FindLink(0,2) = %d,%v; want 0,true", id, ok)
	}
	if _, ok := g.FindLink(2, 0); ok {
		t.Error("FindLink(2,0) found a nonexistent link")
	}
	if got := len(g.OutLinks(0)); got != 2 {
		t.Errorf("len(OutLinks(0)) = %d, want 2", got)
	}
	if got := len(g.InLinks(2)); got != 2 {
		t.Errorf("len(InLinks(2)) = %d, want 2", got)
	}
}

func TestAddNodeAndNames(t *testing.T) {
	g := New(0)
	a := g.AddNode("Seattle")
	b := g.AddNode("Denver")
	if a != 0 || b != 1 {
		t.Fatalf("AddNode IDs = %d,%d; want 0,1", a, b)
	}
	if g.Name(a) != "Seattle" {
		t.Errorf("Name(0) = %q", g.Name(a))
	}
	if id, ok := g.NodeByName("Denver"); !ok || id != 1 {
		t.Errorf("NodeByName(Denver) = %d,%v", id, ok)
	}
	if _, ok := g.NodeByName("Atlanta"); ok {
		t.Error("NodeByName(Atlanta) unexpectedly found")
	}
	g.SetName(a, "Tacoma")
	if g.Name(a) != "Tacoma" {
		t.Errorf("after SetName, Name(0) = %q", g.Name(a))
	}
}

func TestAddDuplex(t *testing.T) {
	g := New(2)
	fwd, rev, err := g.AddDuplex(0, 1, 2.5)
	if err != nil {
		t.Fatalf("AddDuplex: %v", err)
	}
	if g.Link(fwd).From != 0 || g.Link(fwd).To != 1 {
		t.Errorf("forward link = %+v", g.Link(fwd))
	}
	if g.Link(rev).From != 1 || g.Link(rev).To != 0 {
		t.Errorf("reverse link = %+v", g.Link(rev))
	}
	if g.Link(fwd).Cap != 2.5 || g.Link(rev).Cap != 2.5 {
		t.Error("duplex capacities differ from 2.5")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := fig1(t)
	c := g.Clone()
	c.SetName(0, "changed")
	if g.Name(0) == "changed" {
		t.Error("Clone shares name storage with original")
	}
	if _, err := c.AddLink(3, 0, 1); err != nil {
		t.Fatalf("AddLink on clone: %v", err)
	}
	if g.NumLinks() != 4 {
		t.Errorf("original NumLinks changed to %d after clone mutation", g.NumLinks())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("original invalid after clone mutation: %v", err)
	}
}

// TestWithoutLinksMatchesRebuild checks WithoutLinks against the graph
// built from scratch out of the surviving links: names, renumbered
// links, keep, and every adjacency list in order, with a repeated drop
// counted once. Links added to the copy afterwards must not spill into
// a neighbouring node's list, nor the copy alias the original.
func TestWithoutLinksMatchesRebuild(t *testing.T) {
	g := New(5)
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		g.SetName(i, name)
	}
	for _, l := range [][3]int{{0, 1, 1}, {1, 0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 0, 4}, {2, 3, 5}, {3, 2, 6}, {0, 3, 7}} {
		mustLink(t, g, l[0], l[1], float64(l[2]))
	}
	// Node 4 has no links; dropping 3 (b->c) leaves c's in-list empty
	// and 2 (a parallel link) is dropped twice.
	g2, keep, err := g.WithoutLinks(2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := New(5)
	for i := range 5 {
		want.SetName(i, g.Name(i))
	}
	var wantKeep []int
	for _, l := range g.links {
		if l.ID != 2 && l.ID != 3 {
			mustLink(t, want, l.From, l.To, l.Cap)
			wantKeep = append(wantKeep, l.ID)
		}
	}
	sameGraph := func(got, want *Graph) {
		t.Helper()
		if err := got.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		if !slices.Equal(got.names, want.names) || !slices.Equal(got.links, want.links) {
			t.Fatalf("names/links = %v %v, want %v %v", got.names, got.links, want.names, want.links)
		}
		for u := range want.NumNodes() {
			if !slices.Equal(got.OutLinks(u), want.OutLinks(u)) || !slices.Equal(got.InLinks(u), want.InLinks(u)) {
				t.Fatalf("node %d: out %v in %v, want out %v in %v", u,
					got.OutLinks(u), got.InLinks(u), want.OutLinks(u), want.InLinks(u))
			}
		}
	}
	sameGraph(g2, want)
	if !slices.Equal(keep, wantKeep) {
		t.Fatalf("keep = %v, want %v", keep, wantKeep)
	}
	for _, l := range [][2]int{{0, 1}, {1, 2}, {4, 0}, {0, 4}} {
		mustLink(t, g2, l[0], l[1], 1)
		mustLink(t, want, l[0], l[1], 1)
		sameGraph(g2, want)
	}
	g2.SetName(0, "changed")
	if g.Name(0) != "a" || g.NumLinks() != 8 {
		t.Error("WithoutLinks copy shares storage with the original")
	}
	if _, _, err := g.WithoutLinks(8); !errors.Is(err, ErrBadLink) {
		t.Errorf("WithoutLinks(8) error = %v, want ErrBadLink", err)
	}
}

func TestCapacitiesCopy(t *testing.T) {
	g := fig1(t)
	caps := g.Capacities()
	caps[0] = 99
	if g.Link(0).Cap != 1 {
		t.Error("Capacities returned aliased storage")
	}
}

func TestLinksCopy(t *testing.T) {
	g := fig1(t)
	links := g.Links()
	links[0].Cap = 99
	if g.Link(0).Cap != 1 {
		t.Error("Links returned aliased storage")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := fig1(t)
	g.links[2].ID = 7
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted corrupted link ID")
	}
}

func TestParallelLinksAllowed(t *testing.T) {
	g := New(2)
	mustLink(t, g, 0, 1, 1)
	mustLink(t, g, 0, 1, 2)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate with parallel links: %v", err)
	}
	if got := len(g.OutLinks(0)); got != 2 {
		t.Errorf("parallel links: len(OutLinks(0)) = %d, want 2", got)
	}
}
