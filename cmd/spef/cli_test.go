package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	spef "repro"
)

// TestOptimizeFig1 pipes `spef topogen -net fig1` into `spef optimize
// -integer`: the first weights are the paper's Table I column for
// beta = 1, and SPEF's MLU is its 0.9.
func TestOptimizeFig1(t *testing.T) {
	var net, out bytes.Buffer
	if err := topogen([]string{"-net", "fig1"}, &net); err != nil {
		t.Fatal(err)
	}
	if err := optimize(context.Background(), []string{"-integer"}, &net, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 6 {
		t.Fatalf("short output:\n%s", out.String())
	}
	for i, want := range []string{"3.0000", "10.0000", "1.5000", "1.5000"} {
		f := strings.Fields(lines[2+i])
		if len(f) < 9 || f[4] != want {
			t.Errorf("link %d row %q: want w1 %s", i+1, lines[2+i], want)
		}
	}
	if !strings.Contains(out.String(), "\nSPEF: MLU 0.9000,") {
		t.Errorf("no SPEF MLU 0.9000 line in:\n%s", out.String())
	}
}

// TestTopogenRoundTrip: what `spef topogen` writes parses back into the
// network the registry resolves, for named, generated and imported
// topologies.
func TestTopogenRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"fig1",
		"abilene",
		"rand:n=12,links=40,seed=3",
		"zoo:file=../../internal/topoio/testdata/testnet.graphml",
		"sndlib:file=../../internal/topoio/testdata/testnet.txt",
	} {
		var buf bytes.Buffer
		if err := topogen([]string{"-net", spec}, &buf); err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		n, d, err := spef.ParseNetworkAndDemands(&buf)
		if err != nil {
			t.Errorf("%s: parsing topogen output: %v", spec, err)
			continue
		}
		want, err := spef.ResolveTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		if n.NumNodes() != want.Network.NumNodes() || n.NumLinks() != want.Network.NumLinks() {
			t.Errorf("%s: parsed %d nodes, %d links; registry has %d, %d", spec,
				n.NumNodes(), n.NumLinks(), want.Network.NumNodes(), want.Network.NumLinks())
		}
		if d.Total() <= 0 {
			t.Errorf("%s: no demands written", spec)
		}
	}
}
