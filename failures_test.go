package spef

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/delta"
	"repro/internal/traffic"
)

// writeSRLGFile commits a JSON SRLG group file to a temp dir and
// returns its path.
func writeSRLGFile(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "srlg.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestResolveFailureSetModes(t *testing.T) {
	if f, err := ResolveFailureSet(""); f != nil || err != nil {
		t.Fatalf("empty spec = %v, %v, want nil, nil", f, err)
	}
	if f, err := ResolveFailureSet("  "); f != nil || err != nil {
		t.Fatalf("blank spec = %v, %v, want nil, nil", f, err)
	}
	for _, mode := range []string{"single", "dual"} {
		f, err := ResolveFailureSet(mode)
		if err != nil {
			t.Fatalf("ResolveFailureSet(%q): %v", mode, err)
		}
		if f.Mode() != mode {
			t.Errorf("Mode() = %q, want %q", f.Mode(), mode)
		}
	}
	// single and dual take no parameters.
	if _, err := ResolveFailureSet("single:file=x"); !errors.Is(err, ErrBadInput) {
		t.Errorf("single:file=x err = %v, want ErrBadInput", err)
	}
	p := writeSRLGFile(t, `{"groups":[{"name":"g1","links":[["v0","v1"]]}]}`)
	f, err := ResolveFailureSet("srlg:file=" + p)
	if err != nil {
		t.Fatalf("srlg: %v", err)
	}
	if f.Mode() != "srlg" || len(f.groups) != 1 || f.groups[0].name != "g1" {
		t.Errorf("srlg set = %+v", f)
	}
}

func TestResolveFailureSetSRLGErrors(t *testing.T) {
	cases := []struct {
		name, spec, wantSub string
	}{
		{"missing file param", "srlg", "needs file=PATH"},
		{"unreadable file", "srlg:file=" + filepath.Join(t.TempDir(), "nope.json"), "no such file"},
	}
	for _, c := range cases {
		_, err := ResolveFailureSet(c.spec)
		if err == nil || !errors.Is(err, ErrBadInput) || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err = %v, want ErrBadInput containing %q", c.name, err, c.wantSub)
		}
	}
	for _, c := range []struct {
		name, body, wantSub string
	}{
		{"not json", "nope", "parsing SRLG groups"},
		{"unknown field", `{"groups":[{"name":"g","links":[["a","b"]],"extra":1}]}`, "parsing SRLG groups"},
		{"no groups", `{"groups":[]}`, "no SRLG groups"},
		{"unnamed group", `{"groups":[{"links":[["a","b"]]}]}`, "has no name"},
		{"duplicate name", `{"groups":[{"name":"g","links":[["a","b"]]},{"name":"g","links":[["a","b"]]}]}`, `duplicate SRLG group "g"`},
		{"empty group", `{"groups":[{"name":"g","links":[]}]}`, `SRLG group "g" has no links`},
	} {
		_, err := ResolveFailureSet("srlg:file=" + writeSRLGFile(t, c.body))
		if err == nil || !errors.Is(err, ErrBadInput) || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err = %v, want ErrBadInput containing %q", c.name, err, c.wantSub)
		}
	}
}

// TestUnknownFailureSetErrorTextUnchanged pins the unknown-spec error
// byte for byte, matching the router/demand/topology registries: the
// full inventory plus a did-you-mean hint for near misses.
func TestUnknownFailureSetErrorTextUnchanged(t *testing.T) {
	_, err := ResolveFailureSet("duel")
	if err == nil {
		t.Fatal("ResolveFailureSet(duel) succeeded, want error")
	}
	want := "spef: bad input: unknown failure set \"duel\"" +
		suggest("duel", docNames(testCatalog(t).Failures)) +
		" (known: " + strings.Join(specNames(testCatalog(t).Failures), ", ") + ")"
	if got := err.Error(); got != want {
		t.Fatalf("unknown-failure-set error text changed:\n got: %s\nwant: %s", got, want)
	}
	// The near-miss hint must actually fire, and the inventory must name
	// every mode including srlg's parameterized form.
	if !strings.Contains(err.Error(), `did you mean "dual"?`) {
		t.Errorf("error %q missing dual suggestion", err)
	}
	for _, sub := range []string{"single", "dual", "srlg:..."} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("error %q missing inventory entry %q", err, sub)
		}
	}
	// Cached inventory: repeated bad requests render identical text.
	_, err2 := ResolveFailureSet("duel")
	if err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("second resolve rendered different text:\n first: %v\nsecond: %v", err, err2)
	}
	// Parameters on an unknown mode still report the unknown mode.
	_, err = ResolveFailureSet("tripple:file=x")
	if err == nil || !strings.Contains(err.Error(), `unknown failure set "tripple:file=x"`) {
		t.Errorf("parameterized unknown spec err = %v", err)
	}
}

// ring5SRLG writes an SRLG file naming two groups of gridNetwork's
// links: a two-link conduit and a single-link group, plus one group
// whose loss strands demand (the grid must skip it).
func ring5SRLG(t *testing.T) string {
	t.Helper()
	return writeSRLGFile(t, `{"groups":[
		{"name":"conduit-a","links":[["v0","v1"],["v1","v2"]]},
		{"name":"spur","links":[["v1","v3"]]},
		{"name":"cut-v4","links":[["v3","v4"],["v4","v0"]]}
	]}`)
}

// TestFailureUnitsAbilene pins the one failure-unit enumeration on
// Abilene: the single units in duplex-pair order, the dual units after
// them in (i, j>i) order, and an SRLG file's groups in file order with
// their links deduplicated in file order. variants must be exactly the
// units whose failure keeps the demands routable, in order; the delta
// engine, which refuses a stranding failure, is the oracle.
func TestFailureUnitsAbilene(t *testing.T) {
	n := Abilene()
	d, err := ResolveDemands("gravity", n)
	if err != nil {
		t.Fatal(err)
	}
	singles := []failureUnit{
		{"Seattle-Sunnyvale", []int{0, 1}},
		{"Seattle-Denver", []int{2, 3}},
		{"Sunnyvale-LosAngeles", []int{4, 5}},
		{"Sunnyvale-Denver", []int{6, 7}},
		{"LosAngeles-Houston", []int{8, 9}},
		{"Denver-KansasCity", []int{10, 11}},
		{"KansasCity-Houston", []int{12, 13}},
		{"KansasCity-Indianapolis", []int{14, 15}},
		{"Houston-Atlanta", []int{16, 17}},
		{"Indianapolis-Chicago", []int{18, 19}},
		{"Indianapolis-Atlanta", []int{20, 21}},
		{"Chicago-NewYork", []int{22, 23}},
		{"Atlanta-Washington", []int{24, 25}},
		{"NewYork-Washington", []int{26, 27}},
	}
	dual := slices.Clone(singles)
	for i, a := range singles {
		for _, b := range singles[i+1:] {
			dual = append(dual, failureUnit{a.label + "+" + b.label, slices.Concat(a.links, b.links)})
		}
	}
	if got := dual[len(singles)]; got.label != "Seattle-Sunnyvale+Seattle-Denver" || !slices.Equal(got.links, []int{0, 1, 2, 3}) {
		t.Fatalf("first dual unit = %v", got)
	}
	srlg := writeSRLGFile(t, `{"groups":[
		{"name":"west","links":[["Sunnyvale","Seattle"],["Seattle","Denver"]]},
		{"name":"south","links":[["Houston","Atlanta"],["Atlanta","Houston"],["LosAngeles","Houston"]]},
		{"name":"east","links":[["NewYork","Washington"]]}
	]}`)
	groups := []failureUnit{{"west", []int{0, 1, 2, 3}}, {"south", []int{16, 17, 8, 9}}, {"east", []int{26, 27}}}

	for _, c := range []struct {
		spec string
		want []failureUnit
	}{{"single", singles}, {"dual", dual}, {"srlg:file=" + srlg, groups}} {
		fset, err := ResolveFailureSet(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		units, err := fset.units(n)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(units, c.want, func(a, b failureUnit) bool {
			return a.label == b.label && slices.Equal(a.links, b.links)
		}) {
			t.Fatalf("%s units = %v, want %v", c.spec, units, c.want)
		}
		vs, err := fset.variants(n, d)
		if err != nil {
			t.Fatal(err)
		}
		en, err := delta.NewEngine(n.g, d.m, InvCapWeights(n))
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, u := range units {
			if en.FailLinks(u.links...) != nil {
				continue
			}
			if err := en.RestoreLinks(u.links...); err != nil {
				t.Fatal(err)
			}
			want = append(want, u.label)
		}
		got := make([]string, len(vs))
		for i, v := range vs {
			got[i] = v.failedLink
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s variants = %v, want the routable units %v", c.spec, got, want)
		}
		if c.spec != "single" && len(want) == len(units) {
			t.Errorf("%s: no unit strands a demand; Seattle's two links should", c.spec)
		}
	}
}

// TestGridDualFailureVariants checks the dual axis's deterministic
// expansion: all routable singles first (in duplex-pair order), then
// routable unordered pairs in (i, j>i) order, with "A-B+C-D" labels.
func TestGridDualFailureVariants(t *testing.T) {
	n, d := gridNetwork(t)
	fset, err := ResolveFailureSet("dual")
	if err != nil {
		t.Fatal(err)
	}
	vs, err := fset.variants(n, d)
	if err != nil {
		t.Fatal(err)
	}
	singles, err := singleFailures.variants(n, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) <= len(singles) {
		t.Fatalf("dual expansion has %d variants, want more than the %d singles", len(vs), len(singles))
	}
	for i, s := range singles {
		if vs[i].failedLink != s.failedLink {
			t.Fatalf("variant %d = %q, want single %q first", i, vs[i].failedLink, s.failedLink)
		}
	}
	duals := vs[len(singles):]
	seen := map[string]bool{}
	for _, v := range duals {
		parts := strings.Split(v.failedLink, "+")
		if len(parts) != 2 {
			t.Fatalf("dual label %q is not A-B+C-D", v.failedLink)
		}
		if seen[v.failedLink] {
			t.Fatalf("duplicate dual variant %q", v.failedLink)
		}
		seen[v.failedLink] = true
		// Each dual variant drops exactly two duplex pairs.
		if got := n.NumLinks() - v.net.NumLinks(); got != 4 {
			t.Errorf("variant %q dropped %d directed links, want 4", v.failedLink, got)
		}
	}
	// 7 duplex pairs -> 21 unordered pairs; ring5's chords keep most
	// dual failures routable but not all (e.g. both links at a degree-2
	// node's only neighbors), so the routability screen must bite.
	if len(duals) >= 21 {
		t.Errorf("all 21 dual variants survived screening, want some skipped (got %d)", len(duals))
	}
	// Determinism: a second expansion is identical.
	vs2, err := fset.variants(n, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs2) != len(vs) {
		t.Fatalf("re-expansion produced %d variants, want %d", len(vs2), len(vs))
	}
	for i := range vs {
		if vs[i].failedLink != vs2[i].failedLink {
			t.Fatalf("re-expansion variant %d = %q, want %q", i, vs2[i].failedLink, vs[i].failedLink)
		}
	}
}

// TestGridSRLGVariants: one variant per routable group, in file order,
// labeled by group name; groups that strand demand are skipped; bad
// node or link references fail loudly.
func TestGridSRLGVariants(t *testing.T) {
	n, d := gridNetwork(t)
	fset, err := ResolveFailureSet("srlg:file=" + ring5SRLG(t))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := fset.variants(n, d)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, v := range vs {
		labels = append(labels, v.failedLink)
	}
	// cut-v4 severs both of v4's links; demand 2->4 strands, so the
	// group is screened out.
	if got, want := strings.Join(labels, ","), "conduit-a,spur"; got != want {
		t.Fatalf("srlg variants = %s, want %s", got, want)
	}
	if got := n.NumLinks() - vs[0].net.NumLinks(); got != 4 {
		t.Errorf("conduit-a dropped %d directed links, want 4", got)
	}
	if got := n.NumLinks() - vs[1].net.NumLinks(); got != 2 {
		t.Errorf("spur dropped %d directed links, want 2", got)
	}

	for _, c := range []struct{ name, body, wantSub string }{
		{"unknown node", `{"groups":[{"name":"g","links":[["v0","nope"]]}]}`, `unknown node "nope"`},
		{"no such link", `{"groups":[{"name":"g","links":[["v0","v3"]]}]}`, "no duplex link v0-v3"},
	} {
		fset, err := ResolveFailureSet("srlg:file=" + writeSRLGFile(t, c.body))
		if err != nil {
			t.Fatalf("%s: resolve: %v", c.name, err)
		}
		if _, err := fset.variants(n, d); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: variants err = %v, want %q", c.name, err, c.wantSub)
		}
	}
}

// TestGridFailuresSpec: Grid.Failures="single" expands the intact cell
// plus one cell per duplex-pair failure (every one keeps gridNetwork's
// demands routable), "dual" adds pair failures on top, and a bad spec
// fails the whole expansion.
func TestGridFailuresSpec(t *testing.T) {
	n, d := gridNetwork(t)
	single := Grid{
		Topologies: []Topology{{Name: "ring5", Network: n, Demands: d}},
		Routers:    []Router{OSPF(nil)},
		Failures:   "single",
	}
	a, err := single.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	pairs := n.DuplexPairs()
	if len(a) != 1+len(pairs) {
		t.Fatalf("single grid has %d cells, want 1 intact + %d failures", len(a), len(pairs))
	}
	for i, pair := range pairs {
		if want := "/fail=" + pairLabel(n, pair) + "/"; !strings.Contains(a[i+1].Name, want) {
			t.Errorf("cell %d is %q, want failure %q", i+1, a[i+1].Name, pairLabel(n, pair))
		}
	}
	dual := single
	dual.Failures = "dual"
	c, err := dual.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(c) <= len(a) {
		t.Fatalf("dual grid has %d cells, want more than single's %d", len(c), len(a))
	}
	// A bad spec fails the whole expansion.
	bad := single
	bad.Failures = "duel"
	if _, err := bad.Scenarios(); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad failure spec err = %v, want ErrBadInput", err)
	}
}

// TestDeltaParityOnEveryMultiFailureVariant is the delta-engine parity
// property over the new failure sets: for every routable dual and SRLG
// unit, failing its links as one warm FailLinks event must produce
// metrics bit-identical to evaluating the unit's WithoutLinks copy from
// scratch — the equivalence RankCriticalLinks and the fail_mlu metric
// rest on.
func TestDeltaParityOnEveryMultiFailureVariant(t *testing.T) {
	n, d := gridNetwork(t)
	w := make([]float64, n.NumLinks())
	for i := range w {
		w[i] = 1 + float64(i%4)
	}
	for _, spec := range []string{"dual", "srlg:file=" + ring5SRLG(t)} {
		fset, err := ResolveFailureSet(spec)
		if err != nil {
			t.Fatal(err)
		}
		units, err := fset.routableUnits(n, d)
		if err != nil {
			t.Fatal(err)
		}
		if len(units) == 0 {
			t.Fatalf("%s: no units to check", spec)
		}
		en, err := delta.NewEngine(n.g, d.m, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range units {
			if err := en.FailLinks(u.links...); err != nil {
				t.Fatalf("%s/%s: FailLinks(%v): %v", spec, u.label, u.links, err)
			}
			warm := en.Metrics()

			vn, keep, err := n.WithoutLinks(u.links...)
			if err != nil {
				t.Fatal(err)
			}
			wf := make([]float64, vn.NumLinks())
			for newID, oldID := range keep {
				wf[newID] = w[oldID]
			}
			cold, err := delta.NewEvaluator(vn.g, d.m, wf)
			if err != nil {
				t.Fatalf("%s/%s: from-scratch: %v", spec, u.label, err)
			}
			if got, want := warm, cold.Metrics(); got != want {
				t.Errorf("%s/%s: warm metrics %+v, from-scratch %+v", spec, u.label, got, want)
			}
			if err := en.RestoreLinks(u.links...); err != nil {
				t.Fatalf("%s/%s: RestoreLinks: %v", spec, u.label, err)
			}
		}
	}
}

// TestSuiteFailuresField covers the declarative plumbing: the JSON
// field round-trips through Grid (bad specs fail at Grid build), and
// the field stays out of the encoding when empty so existing suite
// hashes cannot move.
func TestSuiteFailuresField(t *testing.T) {
	s := &Suite{
		Topologies: []string{"fig1"},
		Routers:    []string{"invcap"},
		Failures:   "dual",
	}
	g, err := s.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g.Failures != "dual" {
		t.Fatalf("grid failures = %q", g.Failures)
	}
	s.Failures = "duel"
	if _, err := s.Grid(); err == nil || !strings.Contains(err.Error(), `suite failures "duel"`) {
		t.Fatalf("bad suite failures err = %v", err)
	}

	base := &Suite{Topologies: []string{"fig1"}, Routers: []string{"invcap"}}
	h0, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	single := &Suite{Topologies: []string{"fig1"}, Routers: []string{"invcap"}, Failures: "single"}
	hSingle, err := single.Hash()
	if err != nil {
		t.Fatal(err)
	}
	dual := &Suite{Topologies: []string{"fig1"}, Routers: []string{"invcap"}, Failures: "dual"}
	hDual, err := dual.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h0 == hDual || hSingle == hDual {
		t.Error("failure-set spec does not move the suite hash")
	}
	// ParseSuite round trip keeps the field.
	data := []byte(`{"topologies":["fig1"],"routers":["invcap"],"failures":"single"}`)
	s2, err := ParseSuite(data)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Failures != "single" {
		t.Fatalf("parsed failures = %q", s2.Failures)
	}
}

// copyRoutable is the routability screen as the grid ran it before
// the masked one, kept as its oracle: copy n without the links
// (WithoutLinks), then demand that each destination's reachers on the
// copy include every source that sends to it.
func copyRoutable(t *testing.T, n *Network, d *Demands, links []int) bool {
	t.Helper()
	n2, _, err := n.WithoutLinks(links...)
	if err != nil {
		t.Fatal(err)
	}
	reached := make([]bool, n2.NumNodes())
	for dst := range reached {
		if !d.m.IsDestination(dst) {
			continue
		}
		n2.g.Reachers(dst, nil, reached, nil)
		for src, ok := range reached {
			if !ok && d.At(src, dst) > 0 {
				return false
			}
		}
	}
	return true
}

// TestRoutabilityScreenMatchesCopies holds the masked screen on the
// intact graph to its oracle on WithoutLinks copies, over random
// graphs sparse enough to have bridges and demands sparse enough that
// an isolated node does not always strand one: for single, dual and
// random SRLG units, routableUnits must keep exactly the units the
// oracle passes, in order. One mask and its search buffers serve all
// of a set's units, so a mark left from one unit would show in the
// next.
func TestRoutabilityScreenMatchesCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var passed, stranded int
	for c := range 60 {
		nodes := 3 + rng.Intn(10)
		pairs := nodes - 1 + rng.Intn(nodes)
		pairs = min(pairs, nodes*(nodes-1)/2)
		n, err := RandomNetwork(int64(c+1), nodes, 2*pairs)
		if err != nil {
			t.Fatal(err)
		}
		m := traffic.NewMatrix(nodes)
		for src := range nodes {
			for dst := range nodes {
				if src != dst && rng.Intn(3) > 0 {
					if err := m.Set(src, dst, 1+rng.Float64()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		d := &Demands{m: m}
		duplex := n.DuplexPairs()
		srlg := &FailureSet{mode: failureModeSRLG, file: "random"}
		for k := range 1 + rng.Intn(4) {
			grp := srlgGroup{name: fmt.Sprintf("g%d", k)}
			for range 1 + rng.Intn(3) {
				from, to, _ := n.Link(duplex[rng.Intn(len(duplex))][0])
				grp.links = append(grp.links, [2]string{n.NodeName(from), n.NodeName(to)})
			}
			srlg.groups = append(srlg.groups, grp)
		}
		for _, fset := range []*FailureSet{singleFailures, {mode: failureModeDual}, srlg} {
			units, err := fset.units(n)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]bool, len(units))
			for i, u := range units {
				want[i] = copyRoutable(t, n, d, u.links)
				if want[i] {
					passed++
				} else {
					stranded++
				}
			}
			kept, err := fset.routableUnits(n, d)
			if err != nil {
				t.Fatal(err)
			}
			var wantKept []string
			for i, u := range units {
				if want[i] {
					wantKept = append(wantKept, u.label)
				}
			}
			var gotKept []string
			for _, u := range kept {
				gotKept = append(gotKept, u.label)
			}
			if !slices.Equal(gotKept, wantKept) {
				t.Fatalf("case %d %s: routableUnits kept %v, want %v", c, fset.mode, gotKept, wantKept)
			}
		}
	}
	if passed == 0 || stranded == 0 {
		t.Fatalf("%d units passed and %d stranded demand: the cases do not exercise both outcomes", passed, stranded)
	}
	t.Logf("%d units passed, %d stranded demand", passed, stranded)
}
