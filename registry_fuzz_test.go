package spef

import (
	"context"
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/localsearch"
	"repro/internal/traffic"
)

// catalogSeeds seeds the registry fuzz targets from the catalog: each
// section's specs in their catalog form ("waxman:n=...,alpha=...") and
// with every parameter spelled at its default.
func catalogSeeds(f *testing.F, docs ...[]SpecDoc) {
	for _, section := range docs {
		for _, d := range section {
			f.Add(d.Spec())
			var parts []string
			for _, p := range d.Params {
				parts = append(parts, p.Name+"="+p.Default)
			}
			f.Add(d.Name + ":" + strings.Join(parts, ","))
		}
	}
}

// renderSpec renders a parsed spec back into spec form.
func renderSpec(name string, params map[string]string) string {
	if len(params) == 0 {
		return name
	}
	var parts []string
	for _, k := range slices.Sorted(maps.Keys(params)) {
		parts = append(parts, k+"="+params[k])
	}
	return name + ":" + strings.Join(parts, ",")
}

// FuzzParseSpec: a spec either parses into a well-formed name and
// parameters or fails as ErrBadInput, and a parsed spec rendered back
// parses to the same name and parameters.
func FuzzParseSpec(f *testing.F) {
	c, err := NewCatalog()
	if err != nil {
		f.Fatal(err)
	}
	catalogSeeds(f, c.Generators, c.Demands, c.Sequences, c.Routers, c.Failures, c.Metrics)
	for _, s := range []string{"", ":", " Rand : N = 5 ,, ", "a:b=c=d", "x:k=1,K=2", "ospf-ls:accept=tabu:tenure=8", "rand:n"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		name, params, err := parseSpec(spec)
		if err != nil {
			if !errors.Is(err, ErrBadInput) {
				t.Fatalf("parseSpec(%q): %v, want ErrBadInput", spec, err)
			}
			return
		}
		if strings.Contains(name, ":") {
			t.Fatalf("parseSpec(%q): name %q contains ':'", spec, name)
		}
		for k, v := range params {
			if k == "" || strings.ContainsAny(k, ",=") || strings.Contains(v, ",") {
				t.Fatalf("parseSpec(%q): malformed parameter %q=%q", spec, k, v)
			}
		}
		again := renderSpec(name, params)
		name2, params2, err := parseSpec(again)
		if err != nil || name2 != name || !maps.Equal(params2, params) {
			t.Fatalf("parseSpec(%q) = %q %v, but its rendering %q parses to %q %v (err %v)",
				spec, name, params, again, name2, params2, err)
		}
	})
}

// FuzzResolveRouter: resolving a router spec never panics, succeeds or
// fails as ErrBadInput, and optimizes nothing: no search runs, and a
// resolution allocates like a parse of the spec (a bounded number per
// byte), not like an optimization.
func FuzzResolveRouter(f *testing.F) {
	c, err := NewCatalog()
	if err != nil {
		f.Fatal(err)
	}
	catalogSeeds(f, c.Routers)
	f.Add("ospf")
	f.Add("ospf-ls:accept=tabu:tenure=8,iters=100,iters=5")
	f.Add("ospf-ls-robust:rho=NaN")
	orig := runSearch
	runSearch = func(context.Context, *graph.Graph, *traffic.Matrix, localsearch.Options) (*localsearch.Result, error) {
		panic("ResolveRouter ran a local search")
	}
	f.Cleanup(func() { runSearch = orig })
	f.Fuzz(func(t *testing.T, spec string) {
		var r Router
		var err error
		if allocs := testing.AllocsPerRun(1, func() { r, err = ResolveRouter(spec, 0) }); allocs > float64(100+len(spec)) {
			t.Fatalf("ResolveRouter(%q) made %v allocations", spec, allocs)
		}
		switch {
		case err != nil && !errors.Is(err, ErrBadInput):
			t.Fatalf("ResolveRouter(%q): %v, want ErrBadInput", spec, err)
		case err == nil && r.Name() == "":
			t.Fatalf("ResolveRouter(%q) has no name", spec)
		}
	})
}
