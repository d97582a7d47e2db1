package spef

import (
	"errors"
	"sort"
	"strings"
	"testing"
)

// The unknown-spec errors render their inventories from the spec
// tables; the topology inventory comes from process-lifetime caches
// (namedTopologies, knownTopologies), so a server's bad-request path
// doesn't rebuild the Table III networks per request. These tests pin
// the rendered error text to what per-call construction from the
// catalog produces — byte for byte.

// docNames lists the bare spec names of a catalog section.
func docNames(docs []SpecDoc) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.Name
	}
	return out
}

// testCatalog is NewCatalog for tests.
func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// freshKnownTopologies rebuilds the topology inventory string the
// pre-hoist per-call path produced.
func freshKnownTopologies(t *testing.T) string {
	t.Helper()
	infos, err := RegisteredTopologies()
	if err != nil {
		t.Fatalf("RegisteredTopologies: %v", err)
	}
	names := make([]string, len(infos))
	for i, ti := range infos {
		names[i] = ti.Name
	}
	sort.Strings(names)
	return strings.Join(append(names, specNames(testCatalog(t).Generators)...), ", ")
}

func TestUnknownTopologyErrorTextUnchanged(t *testing.T) {
	_, err := ResolveTopology("abilenne")
	if err == nil {
		t.Fatal("ResolveTopology(abilenne) succeeded, want error")
	}
	infos, rerr := RegisteredTopologies()
	if rerr != nil {
		t.Fatalf("RegisteredTopologies: %v", rerr)
	}
	fresh := make([]string, 0, len(infos))
	for _, ti := range infos {
		fresh = append(fresh, ti.Name)
	}
	fresh = append(fresh, docNames(testCatalog(t).Generators)...)
	want := "spef: bad input: unknown topology \"abilenne\"" +
		suggest("abilenne", fresh) + " (known: " + freshKnownTopologies(t) + ")"
	if got := err.Error(); got != want {
		t.Fatalf("unknown-topology error text changed:\n got: %s\nwant: %s", got, want)
	}
	// The cached inventory must be stable across calls (appends in the
	// error path must not clobber the shared backing array).
	_, err2 := ResolveTopology("abilenne")
	if err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("second resolve rendered different text:\n first: %v\nsecond: %v", err, err2)
	}
}

func TestUnknownRouterErrorTextUnchanged(t *testing.T) {
	_, err := ResolveRouter("ospff", 0)
	if err == nil {
		t.Fatal("ResolveRouter(ospff) succeeded, want error")
	}
	c := testCatalog(t)
	known := append(docNames(c.Routers), "ospf")
	want := "spef: bad input: unknown router \"ospff\"" +
		suggest("ospff", known) + " (known: " + strings.Join(specNames(c.Routers), ", ") + ")"
	if got := err.Error(); got != want {
		t.Fatalf("unknown-router error text changed:\n got: %s\nwant: %s", got, want)
	}
}

func TestUnknownDemandErrorTextUnchanged(t *testing.T) {
	n, _, err := SimpleExample()
	if err != nil {
		t.Fatal(err)
	}
	_, err = ResolveDemands("gravityy", n)
	if err == nil {
		t.Fatal("ResolveDemands(gravityy) succeeded, want error")
	}
	c := testCatalog(t)
	names := append(docNames(c.Demands), docNames(c.Sequences)...)
	want := "spef: bad input: unknown demand generator \"gravityy\"" +
		suggest("gravityy", names) +
		" (known: " + strings.Join(specNames(c.Demands), ", ") +
		"; sequences: " + strings.Join(specNames(c.Sequences), ", ") + ")"
	if got := err.Error(); got != want {
		t.Fatalf("unknown-demand error text changed:\n got: %s\nwant: %s", got, want)
	}
}

// TestKnownTopologiesCachedStable: repeated bad requests must render
// identical inventories — the property the cache relies on, since
// error-path appends share the cached slice's backing array only if
// it has spare capacity (it must not).
func TestKnownTopologiesCachedStable(t *testing.T) {
	first := knownTopologies()
	for i := 0; i < 3; i++ {
		if _, err := ResolveTopology("nope"); err == nil {
			t.Fatal("ResolveTopology(nope) succeeded")
		}
		if _, err := ResolveDemands("nope", nil); err == nil {
			break // nil network: only reached for specs that parse; ignore
		}
	}
	if got := knownTopologies(); got != first {
		t.Fatalf("knownTopologies changed across error-path calls:\n first: %s\n later: %s", first, got)
	}
}

// TestBadSpecValuesAreBadInput: values a generator, demand constructor
// or importer rejects, and negative budgets, are ErrBadInput like
// unknown names and malformed pairs, so `spef serve` answers 400 for
// them. So are the values the spec parser itself rejects: a non-finite
// float, a key given twice, grid's wrap outside {0, 1}, and a bad
// sequence boost even without hotspots. An unknown key's error lists
// the allowed keys in catalog order.
// iters=0 still means the automatic budget.
func TestBadSpecValuesAreBadInput(t *testing.T) {
	n := Abilene()
	topology := func(s string) error { _, err := ResolveTopology(s); return err }
	demands := func(s string) error { _, err := ResolveDemands(s, n); return err }
	sequence := func(s string) error { _, _, err := ResolveDemandSequence(s, n); return err }
	router := func(s string) error { _, err := ResolveRouter(s, 0); return err }
	failures := func(s string) error { _, err := ResolveFailureSet(s); return err }
	suiteIters := func(s string) error {
		_, err := (&Suite{Topologies: []string{"fig1"}, Routers: []string{s}, MaxIterations: -1}).Grid()
		return err
	}
	const zoo = "zoo:file=internal/topoio/testdata/testnet.graphml"
	for _, tc := range []struct {
		spec    string
		resolve func(string) error
		want    string // a substring of the error, when set
	}{
		{"fattree:k=3", topology, ""},
		{"rand:n=-3", topology, ""},
		{"sndlib:file=internal/topoio/testdata/testnet.graphml", topology, ""},
		{"uniform:v=-1", demands, ""},
		{"gravity:sigma=NaN", demands, ""},
		{"gravity-diurnal:hotspots=-2", sequence, ""},
		{"spef:iters=-5", router, ""},
		{"peft:iters=-1", router, ""},
		{"optimal:iters=-1", router, ""},
		{"ospf-ls:iters=-5", router, ""},
		{"sr:iters=-5", router, ""},
		{"mpls-ksp:iters=-5", router, ""},
		{"invcap", suiteIters, ""},
		// Non-finite floats.
		{"ospf-ls-robust:rho=NaN", router, "not a finite number"},
		{"ospf-ls-robust:rho=+Inf", router, "not a finite number"},
		{zoo + ",unit=Inf", topology, "not a finite number"},
		{zoo + ",unit=nan", topology, "not a finite number"},
		{"ft-diurnal:boost=-inf", sequence, "not a finite number"},
		// Repeated keys.
		{"ospf-ls:iters=100,iters=5", router, "given twice"},
		{"rand:seed=1,seed=2", topology, "given twice"},
		{"gravity:sigma=0.5,SIGMA=0.9", demands, "given twice"},
		{"gravity-diurnal:steps=2,steps=3", sequence, "given twice"},
		{"srlg:file=a.json,file=b.json", failures, "given twice"},
		// grid's wrap is 0 or 1.
		{"grid:wrap=2", topology, "wrap=2 must be 0 or 1"},
		// A sequence's boost is read without hotspots too.
		{"gravity-diurnal:boost=x", sequence, `boost="x" is not a number`},
		{"ft-diurnal:hotspots=0,boost=x", sequence, `boost="x" is not a number`},
		// Allowed keys in catalog order.
		{"ospf-ls:bogus=1", router, "(allowed: iters, wmax, seed, accept)"},
		{"ospf-ls-robust:bogus=1", router, "(allowed: iters, wmax, seed, rho, sample, sampleseed, accept)"},
		{"mpls-ksp:bogus=1", router, "(allowed: k, iters, wmax, seed, base, colgen)"},
		{"sr:bogus=1", router, "(allowed: segs, iters, wmax, seed, base)"},
	} {
		err := tc.resolve(tc.spec)
		if !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: err = %v, want ErrBadInput", tc.spec, err)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.spec, err, tc.want)
		}
	}
	if err := router("spef:iters=0"); err != nil {
		t.Errorf("spef:iters=0: %v", err)
	}
}
