package spef

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// numericDefaults spells every parameter of d whose documented default
// is a number at that default ("n=50"), and returns the iters default
// (0 when iters is absent or a word such as "auto").
func numericDefaults(d SpecDoc) (parts []string, iters int) {
	for _, p := range d.Params {
		if _, err := strconv.ParseFloat(p.Default, 64); err != nil {
			continue
		}
		parts = append(parts, p.Name+"="+p.Default)
		if p.Name == "iters" {
			iters, _ = strconv.Atoi(p.Default)
		}
	}
	return parts, iters
}

// matrixBits renders demands bit for bit (nil for no demands).
func matrixBits(d *Demands, nodes int) []uint64 {
	if d == nil {
		return nil
	}
	var out []uint64
	for s := 0; s < nodes; s++ {
		for t := 0; t < nodes; t++ {
			out = append(out, math.Float64bits(d.At(s, t)))
		}
	}
	return out
}

// topologyBits renders a resolved topology's nodes, links, capacities
// and canonical demands bit for bit.
func topologyBits(t Topology) []uint64 {
	n := t.Network
	out := []uint64{uint64(n.NumNodes()), uint64(n.NumLinks())}
	for id := 0; id < n.NumLinks(); id++ {
		from, to, c := n.Link(id)
		out = append(out, uint64(from), uint64(to), math.Float64bits(c))
	}
	return append(out, matrixBits(t.Demands, n.NumNodes())...)
}

// TestCatalogSpecsResolve: the catalog is the registry's
// self-description and the parser's declaration, so for every entry of
// every table:
//   - the bare spec resolves;
//   - every numeric-default parameter spelled at its documented default
//     resolves to exactly what the bare spec does (the same router
//     value and name; the same nodes, links and capacities with
//     bit-identical canonical demands; bit-identical matrices);
//   - an undocumented key, and a documented key given twice, are
//     ErrBadInput.
//
// A router's iters default is the caller's budget, so the bare router
// resolves with its documented iters default as defaultIters.
func TestCatalogSpecsResolve(t *testing.T) {
	c := testCatalog(t)
	for _, info := range c.Topologies {
		if _, err := ResolveTopology(info.Name); err != nil {
			t.Errorf("named topology %q does not resolve: %v", info.Name, err)
		}
	}
	// The importers and the SRLG failure set need a file to resolve at
	// all; specWith renders a spec with it and the given parameters.
	srlg := filepath.Join(t.TempDir(), "srlg.json")
	if err := os.WriteFile(srlg, []byte(`{"groups":[{"name":"g","links":[["A","B"]]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"zoo":    "internal/topoio/testdata/testnet.graphml",
		"sndlib": "internal/topoio/testdata/testnet.txt",
		"srlg":   srlg,
	}
	specWith := func(d SpecDoc, parts ...string) string {
		if f, ok := files[d.Name]; ok {
			parts = append([]string{"file=" + f}, parts...)
		}
		if len(parts) == 0 {
			return d.Name
		}
		return d.Name + ":" + strings.Join(parts, ",")
	}
	n, err := RandomNetwork(1, 10, 26)
	if err != nil {
		t.Fatal(err)
	}
	// Each section resolves a spec into bits to compare, or an error.
	// Small step counts keep the sequences fast.
	sections := []struct {
		name    string
		docs    []SpecDoc
		resolve func(spec string, iters int) (any, error)
	}{
		{"generator", c.Generators, func(spec string, _ int) (any, error) {
			tp, err := ResolveTopology(spec)
			if err != nil {
				return nil, err
			}
			return topologyBits(tp), nil
		}},
		{"demand", c.Demands, func(spec string, _ int) (any, error) {
			d, err := ResolveDemands(spec, n)
			return matrixBits(d, n.NumNodes()), err
		}},
		{"sequence", c.Sequences, func(spec string, _ int) (any, error) {
			steps, ok, err := ResolveDemandSequence(spec, n)
			if err == nil && !ok {
				err = fmt.Errorf("not a sequence")
			}
			var out []any
			for _, st := range steps {
				out = append(out, st.Label, matrixBits(st.Demands, n.NumNodes()))
			}
			return out, err
		}},
		{"router", c.Routers, func(spec string, iters int) (any, error) {
			r, err := ResolveRouter(spec, iters)
			if err != nil {
				return nil, err
			}
			return []any{r.Name(), r}, nil
		}},
		{"failure set", c.Failures, func(spec string, _ int) (any, error) {
			f, err := ResolveFailureSet(spec)
			return f, err
		}},
		{"metric", c.Metrics, func(spec string, _ int) (any, error) {
			m, err := MetricsByName(spec)
			if err != nil {
				return nil, err
			}
			return m[0].Name(), nil
		}},
	}
	for _, sec := range sections {
		for _, d := range sec.docs {
			defaults, iters := numericDefaults(d)
			bare, err := sec.resolve(specWith(d), iters)
			if err != nil {
				t.Errorf("%s %q does not resolve: %v", sec.name, specWith(d), err)
				continue
			}
			if name := d.Name; sec.name == "sequence" {
				// The full default cycle is covered above; compare
				// spelled defaults on a short one.
				defaults = append(slices.DeleteFunc(defaults, func(p string) bool { return strings.HasPrefix(p, "steps=") }), "steps=2")
				if bare, err = sec.resolve(specWith(d, "steps=2"), iters); err != nil {
					t.Errorf("sequence %q: %v", name, err)
					continue
				}
			}
			if len(defaults) > 0 {
				spelled := specWith(d, defaults...)
				got, err := sec.resolve(spelled, 0)
				if err != nil {
					t.Errorf("%s %q does not resolve: %v", sec.name, spelled, err)
				} else if !reflect.DeepEqual(got, bare) {
					t.Errorf("%s %q resolves differently from %q", sec.name, spelled, specWith(d))
				}
			}
			undocumented := specWith(d, "bogus=1")
			if _, err := sec.resolve(undocumented, 0); !errors.Is(err, ErrBadInput) {
				t.Errorf("%s %q: err = %v, want ErrBadInput", sec.name, undocumented, err)
			}
			if len(d.Params) > 0 {
				p := d.Params[len(d.Params)-1]
				v := p.Default
				if p.Name == "file" {
					v = files[d.Name]
				}
				twice := specWith(d, p.Name+"="+v, p.Name+"="+v)
				if _, err := sec.resolve(twice, 0); !errors.Is(err, ErrBadInput) {
					t.Errorf("%s %q: err = %v, want ErrBadInput", sec.name, twice, err)
				}
			}
		}
	}
}

func TestCatalogRendering(t *testing.T) {
	c, err := NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	var md, txt bytes.Buffer
	if err := c.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"abilene", "waxman:", "zoo:file=", "gravity-diurnal", "mlu", "spef"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown catalog missing %q", want)
		}
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text catalog missing %q", want)
		}
	}
	if strings.Contains(md.String(), "spef-catalog:begin") {
		t.Error("markdown fragment must not contain the README markers")
	}
}

// TestReadmeCatalogSectionInSync pins the committed README's generated
// "Scenario catalog" section to the live registry: adding a spec to any
// *Docs table without regenerating the README (`go run ./cmd/spef
// catalog -markdown`) fails here, not just in CI's shell diff.
func TestReadmeCatalogSectionInSync(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- spef-catalog:begin -->\n", "<!-- spef-catalog:end -->"
	_, rest, ok := strings.Cut(string(readme), begin)
	if !ok {
		t.Fatal("README.md is missing the spef-catalog:begin marker")
	}
	section, _, ok := strings.Cut(rest, end)
	if !ok {
		t.Fatal("README.md is missing the spef-catalog:end marker")
	}
	c, err := NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	var md bytes.Buffer
	if err := c.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if section != md.String() {
		t.Fatal("README 'Scenario catalog' section is stale; regenerate with: go run ./cmd/spef catalog -markdown")
	}
}

// TestRouterInventoryMatchesCatalog: the unknown-router error's
// inventory and the catalog must both be views of routerSpecs — a
// router registered in one place but not the other would document
// specs that don't resolve (or resolve specs that aren't documented).
// The error lists every catalog router, and a one-letter typo of any
// router name or alias is suggested back.
func TestRouterInventoryMatchesCatalog(t *testing.T) {
	c := testCatalog(t)
	_, err := ResolveRouter("nosuchrouter", 0)
	if err == nil {
		t.Fatal("ResolveRouter(nosuchrouter) succeeded")
	}
	_, list, ok := strings.Cut(err.Error(), "(known: ")
	if !ok {
		t.Fatalf("unknown-router error has no inventory: %v", err)
	}
	listed := map[string]bool{}
	for _, spec := range strings.Split(strings.TrimSuffix(list, ")"), ", ") {
		listed[strings.TrimSuffix(spec, ":...")] = true
	}
	if len(listed) != len(c.Routers) {
		t.Errorf("inventory %q lists %d routers, the catalog %d", list, len(listed), len(c.Routers))
	}
	for _, name := range append(docNames(c.Routers), "ospf") {
		if name != "ospf" && !listed[name] {
			t.Errorf("catalog router %q missing from the inventory list %q", name, list)
		}
		_, err := ResolveRouter(name+"x", 0)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("did you mean %q?", name)) {
			t.Errorf("ResolveRouter(%q) = %v, want a suggestion of %q", name+"x", err, name)
		}
	}
}

func TestSuggest(t *testing.T) {
	if got := suggest("abileen", []string{"abilene", "cernet2"}); !strings.Contains(got, "abilene") {
		t.Errorf("suggest(abileen) = %q", got)
	}
	if got := suggest("zzzzzz", []string{"abilene", "cernet2"}); got != "" {
		t.Errorf("suggest(zzzzzz) = %q, want no suggestion", got)
	}
}
