package main

import (
	"slices"
	"strings"
	"testing"
)

// TestSplitList pins the comma re-attachment heuristic: fragments that
// open with key=value glue onto the previous spec (parameterized specs
// embed commas), while bare names and "name:..." fragments start new
// specs — including the tricky accept=tabu:tenure=N value, whose first
// '=' precedes its first ':'.
func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"invcap,spef", []string{"invcap", "spef"}},
		{"rand:n=50,links=242,seed=1,abilene", []string{"rand:n=50,links=242,seed=1", "abilene"}},
		{"ospf-ls:accept=tabu:tenure=8,iters=100,invcap", []string{"ospf-ls:accept=tabu:tenure=8,iters=100", "invcap"}},
		{"invcap,zoo:file=net.graphml", []string{"invcap", "zoo:file=net.graphml"}},
		{"ospf-ls-robust:sample=4,sampleseed=2,accept=tabu,spef:iters=40",
			[]string{"ospf-ls-robust:sample=4,sampleseed=2,accept=tabu", "spef:iters=40"}},
		{" a , b ,, c ", []string{"a", "b", "c"}},
		// A leading key=value fragment has nothing to attach to: it
		// stands alone (and fails spec resolution loudly downstream).
		{"iters=5,invcap", []string{"iters=5", "invcap"}},
	}
	for _, c := range cases {
		got := splitList(c.in)
		if strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("splitList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestSuiteRejectsPositionalArgs: flag parsing stops at the first
// positional argument, so "-failures dual" (boolean-style flag — the
// value form is -failures=dual) would otherwise run a *single*-failure
// sweep and silently drop every flag after it.
func TestSuiteRejectsPositionalArgs(t *testing.T) {
	err := suiteMain([]string{"-topologies", "abilene", "-routers", "invcap", "-failures", "dual"})
	if err == nil {
		t.Fatal("suiteMain accepted a positional argument, want loud rejection")
	}
	for _, want := range []string{`"dual"`, "-failures=dual"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// TestFailureFlag covers the -failures flag's dual nature: boolean-style
// bare use selects the single-link axis, and explicit values select the
// multi-failure sets.
func TestFailureFlag(t *testing.T) {
	var f failureFlag
	if f.set || f.String() != "" {
		t.Fatalf("zero flag = %+v", f)
	}
	if !f.IsBoolFlag() {
		t.Fatal("failureFlag must be boolean-style for bare -failures")
	}
	// Bare -failures: the flag package passes "true".
	if err := f.Set("true"); err != nil {
		t.Fatal(err)
	}
	if !f.set || f.spec != "single" {
		t.Fatalf("bare -failures = %+v, want single", f)
	}
	if err := f.Set("false"); err != nil {
		t.Fatal(err)
	}
	if !f.set || f.spec != "" {
		t.Fatalf("-failures=false = %+v, want empty spec with set", f)
	}
	for _, spec := range []string{"single", "dual", "srlg:file=groups.json"} {
		if err := f.Set(spec); err != nil {
			t.Fatal(err)
		}
		if f.spec != spec {
			t.Fatalf("Set(%q) recorded %q", spec, f.spec)
		}
	}
}

// FuzzSplitList: the comma re-attachment never yields an empty spec,
// and re-splitting its joined output gives the same specs back.
func FuzzSplitList(f *testing.F) {
	for _, s := range []string{
		"invcap,spef",
		"rand:n=50,links=242,seed=1,abilene",
		"ospf-ls:accept=tabu:tenure=8,iters=100,invcap",
		" a , b ,, c ",
		"iters=5,invcap",
		"zoo:file=net.graphml,cap=10,unit=1e9,gravity-diurnal:steps=3,peak=1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := splitList(s)
		for _, spec := range got {
			if spec == "" {
				t.Fatalf("splitList(%q) = %q has an empty spec", s, got)
			}
		}
		if again := splitList(strings.Join(got, ",")); !slices.Equal(again, got) {
			t.Fatalf("splitList(%q) = %q, but re-splitting its join gives %q", s, got, again)
		}
	})
}
