package topo

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// checkStronglyConnected verifies every node can reach every destination,
// which duplex construction should guarantee for connected topologies.
func checkStronglyConnected(t *testing.T, g *graph.Graph) {
	t.Helper()
	for dst := 0; dst < g.NumNodes(); dst++ {
		ok, err := graph.Reachable(g, dst)
		if err != nil {
			t.Fatalf("Reachable(%d): %v", dst, err)
		}
		if !ok {
			t.Fatalf("not every node reaches node %d", dst)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	g := Fig1()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumNodes() != 4 || g.NumLinks() != 4 {
		t.Fatalf("Fig1 = %d nodes %d links, want 4/4", g.NumNodes(), g.NumLinks())
	}
	// Table I order: (1,3), (3,4), (1,2), (2,3).
	wantEnds := [][2]int{{0, 2}, {2, 3}, {0, 1}, {1, 2}}
	for i, w := range wantEnds {
		l := g.Link(i)
		if l.From != w[0] || l.To != w[1] {
			t.Errorf("link %d = (%d,%d), want (%d,%d)", i, l.From, l.To, w[0], w[1])
		}
		if l.Cap != 1 {
			t.Errorf("link %d capacity = %v, want 1", i, l.Cap)
		}
	}
	for _, d := range Fig1Demands() {
		if d.Volume <= 0 {
			t.Errorf("demand %+v not positive", d)
		}
	}
}

func TestSimpleShape(t *testing.T) {
	g := Simple()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumNodes() != 7 || g.NumLinks() != 13 {
		t.Fatalf("Simple = %d nodes %d links, want 7/13", g.NumNodes(), g.NumLinks())
	}
	for i := 0; i < 13; i++ {
		if g.Link(i).Cap != 5 {
			t.Errorf("link %d capacity = %v, want 5", i, g.Link(i).Cap)
		}
	}
	// Every demand must be routable, with at least one alternative path
	// for multipath experiments.
	for _, d := range SimpleDemands() {
		w := make([]float64, g.NumLinks())
		for i := range w {
			w[i] = 1
		}
		sp, err := graph.DijkstraTo(g, w, d.Dst)
		if err != nil {
			t.Fatalf("DijkstraTo(%d): %v", d.Dst, err)
		}
		if sp.Dist[d.Src] == graph.Unreachable {
			t.Errorf("demand %+v unroutable", d)
		}
	}
	// The aggregate demands must be feasible: 12 units leave node 1 over
	// 3 out-links of capacity 5.
	if got := len(g.OutLinks(0)); got != 3 {
		t.Errorf("node 1 out-degree = %d, want 3", got)
	}
}

// countSimplePaths counts simple directed paths src -> dst by DFS.
func countSimplePaths(g *graph.Graph, src, dst int) int {
	seen := make([]bool, g.NumNodes())
	var dfs func(u int) int
	dfs = func(u int) int {
		if u == dst {
			return 1
		}
		seen[u] = true
		total := 0
		for _, id := range g.OutLinks(u) {
			if v := g.Link(id).To; !seen[v] {
				total += dfs(v)
			}
		}
		seen[u] = false
		return total
	}
	return dfs(src)
}

func TestSimpleDemandsMultipath(t *testing.T) {
	g := Simple()
	// Each demand must have more than one candidate path (the premise of
	// Figs. 6/7/11a).
	for _, d := range SimpleDemands() {
		if got := countSimplePaths(g, d.Src, d.Dst); got < 2 {
			t.Errorf("demand %+v has %d candidate paths, want >= 2", d, got)
		}
	}
}

func TestAbileneShape(t *testing.T) {
	g := Abilene()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumNodes() != 11 || g.NumLinks() != 28 {
		t.Fatalf("Abilene = %d nodes %d links, want 11/28 (Table III)", g.NumNodes(), g.NumLinks())
	}
	for _, l := range g.Links() {
		if l.Cap != 10 {
			t.Errorf("link %d capacity = %v, want 10 Gbps", l.ID, l.Cap)
		}
	}
	checkStronglyConnected(t, g)
	if _, ok := g.NodeByName("Denver"); !ok {
		t.Error("Denver missing from Abilene")
	}
}

func TestCernet2Shape(t *testing.T) {
	g := Cernet2()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumNodes() != 20 || g.NumLinks() != 44 {
		t.Fatalf("Cernet2 = %d nodes %d links, want 20/44 (Table III)", g.NumNodes(), g.NumLinks())
	}
	var trunks, std int
	for _, l := range g.Links() {
		switch l.Cap {
		case 10:
			trunks++
		case 2.5:
			std++
		default:
			t.Errorf("link %d has unexpected capacity %v", l.ID, l.Cap)
		}
	}
	if trunks != 4 {
		t.Errorf("10G directed trunks = %d, want 4 (paper: 4 backbone links)", trunks)
	}
	if std != 40 {
		t.Errorf("2.5G directed links = %d, want 40", std)
	}
	checkStronglyConnected(t, g)
}

func TestCernet2TableIVDemandsRoutable(t *testing.T) {
	g := Cernet2()
	m, err := traffic.FromDemands(g.NumNodes(), Cernet2TableIVDemands())
	if err != nil {
		t.Fatalf("FromDemands: %v", err)
	}
	if got := m.Total(); got != 14 {
		t.Errorf("Table IV total = %v Gbps, want 14", got)
	}
}

func TestRandomGenerator(t *testing.T) {
	g, err := Random(1, 50, 242)
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumNodes() != 50 || g.NumLinks() != 242 {
		t.Fatalf("Random = %d nodes %d links, want 50/242", g.NumNodes(), g.NumLinks())
	}
	for _, l := range g.Links() {
		if l.Cap != 1 {
			t.Fatalf("random link capacity = %v, want 1", l.Cap)
		}
	}
	checkStronglyConnected(t, g)
	// Determinism.
	g2, err := Random(1, 50, 242)
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	for i := 0; i < g.NumLinks(); i++ {
		if g.Link(i) != g2.Link(i) {
			t.Fatalf("Random not deterministic at link %d", i)
		}
	}
}

func TestRandomGeneratorErrors(t *testing.T) {
	tests := []struct {
		name     string
		n, links int
	}{
		{name: "odd links", n: 10, links: 21},
		{name: "too few links", n: 10, links: 10},
		{name: "too many links", n: 4, links: 14},
		{name: "one node", n: 1, links: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Random(1, tt.n, tt.links); !errors.Is(err, ErrBadParams) {
				t.Errorf("Random(%d,%d) err = %v, want ErrBadParams", tt.n, tt.links, err)
			}
		})
	}
}

func TestHier2LevelGenerator(t *testing.T) {
	g, err := Hier2Level(1, 50, 5, 222)
	if err != nil {
		t.Fatalf("Hier2Level: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumNodes() != 50 || g.NumLinks() != 222 {
		t.Fatalf("Hier = %d nodes %d links, want 50/222", g.NumNodes(), g.NumLinks())
	}
	var locals, longs int
	for _, l := range g.Links() {
		switch l.Cap {
		case 1:
			locals++
		case 5:
			longs++
		default:
			t.Fatalf("hier link capacity = %v, want 1 or 5", l.Cap)
		}
	}
	if locals == 0 || longs == 0 {
		t.Errorf("expected both local (%d) and long-distance (%d) links", locals, longs)
	}
	checkStronglyConnected(t, g)
}

func TestHier2LevelErrors(t *testing.T) {
	if _, err := Hier2Level(1, 50, 1, 222); !errors.Is(err, ErrBadParams) {
		t.Error("clusters=1 accepted")
	}
	if _, err := Hier2Level(1, 50, 5, 221); !errors.Is(err, ErrBadParams) {
		t.Error("odd link count accepted")
	}
}

// TestTable3NetworkBuildsOne checks the single-network lookup against
// the full registry: any letter case finds the same network, link for
// link, and an unknown ID reports not found without an error.
func TestTable3NetworkBuildsOne(t *testing.T) {
	nets, err := Table3Networks()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range nets {
		for _, id := range []string{want.ID, strings.ToLower(want.ID), strings.ToUpper(want.ID)} {
			got, ok, err := Table3Network(id)
			if err != nil || !ok {
				t.Fatalf("Table3Network(%q) = ok %v, err %v", id, ok, err)
			}
			if got.ID != want.ID || got.Topology != want.Topology ||
				!slices.Equal(got.G.Links(), want.G.Links()) || got.G.NumNodes() != want.G.NumNodes() {
				t.Errorf("Table3Network(%q) = %s/%s, %d nodes, differs from the registry's %s", id, got.ID, got.Topology, got.G.NumNodes(), want.ID)
			}
		}
	}
	if _, ok, err := Table3Network("Rand200"); ok || err != nil {
		t.Errorf("Table3Network(Rand200) = ok %v, err %v; want not found", ok, err)
	}
}

func TestTable3NetworksMatchPaper(t *testing.T) {
	nets, err := Table3Networks()
	if err != nil {
		t.Fatalf("Table3Networks: %v", err)
	}
	want := map[string][2]int{
		"Abilene": {11, 28},
		"Cernet2": {20, 44},
		"Hier50a": {50, 222},
		"Hier50b": {50, 152},
		"Rand50a": {50, 242},
		"Rand50b": {50, 230},
		"Rand100": {100, 392},
	}
	if len(nets) != len(want) {
		t.Fatalf("got %d networks, want %d", len(nets), len(want))
	}
	for _, n := range nets {
		w, ok := want[n.ID]
		if !ok {
			t.Errorf("unexpected network %q", n.ID)
			continue
		}
		if n.G.NumNodes() != w[0] || n.G.NumLinks() != w[1] {
			t.Errorf("%s = %d nodes %d links, want %d/%d",
				n.ID, n.G.NumNodes(), n.G.NumLinks(), w[0], w[1])
		}
		checkStronglyConnected(t, n.G)
	}
}
