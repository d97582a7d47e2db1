package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	spef "repro"
)

// topogenMain runs `spef topogen`: write a network (and optionally its
// demands) in the text format `spef optimize` reads. Topologies and
// demand generators resolve through the library's registry, so any
// registered spec works:
//
//	spef topogen -net abilene|cernet2|fig1|simple [-demands ft|gravity|uniform|none] [-load L]
//	spef topogen -net rand -nodes 50 -links 242 [-seed 1] ...
//	spef topogen -net hier -nodes 50 -clusters 5 -links 222 ...
//	spef topogen -net rand:n=80,links=320,seed=7 -demands gravity:sigma=0.8
//	spef topogen -net waxman:n=60,alpha=0.4,beta=0.2 | ba:n=60,m=2 | fattree:k=4 | grid:rows=5,cols=5
//	spef topogen -net zoo:file=net.graphml | sndlib:file=net.txt
//
// Run `spef catalog` for the full spec inventory.
func topogenMain(args []string) error { return topogen(args, os.Stdout) }

// topogen is `spef topogen` with its flags in args, writing to w.
func topogen(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("spef topogen", flag.ExitOnError)
	var (
		netKind  = fs.String("net", "abilene", "topology spec: abilene|cernet2|fig1|simple|rand|hier or any registry spec (rand:n=50,links=242,seed=1)")
		seed     = fs.Int64("seed", 1, "generator seed (rand/hier shorthand and generated demands)")
		nodes    = fs.Int("nodes", 50, "node count (rand/hier shorthand)")
		links    = fs.Int("links", 222, "directed link count (rand/hier shorthand)")
		clusters = fs.Int("clusters", 5, "cluster count (hier shorthand)")
		demands  = fs.String("demands", "ft", "demand generator spec: ft|gravity|uniform|none, with optional parameters (gravity:seed=2,sigma=0.8); fig1/simple carry their own")
		load     = fs.Float64("load", 0.1, "network load to scale generated demands to (0 keeps the generator's scale)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The -nodes/-links/-clusters/-seed shorthand flags expand the bare
	// generator names into full registry specs. The registry
	// lowercases spec names but not parameter values, so normalize
	// only the name here — lowercasing the whole spec would corrupt
	// file= paths of the importer specs (zoo:file=Abilene.graphml).
	kind := strings.TrimSpace(*netKind)
	if name, rest, ok := strings.Cut(kind, ":"); ok {
		kind = strings.ToLower(strings.TrimSpace(name)) + ":" + rest
	} else {
		kind = strings.ToLower(kind)
	}
	switch kind {
	case "rand":
		kind = fmt.Sprintf("rand:n=%d,links=%d,seed=%d", *nodes, *links, *seed)
	case "hier":
		kind = fmt.Sprintf("hier:n=%d,clusters=%d,links=%d,seed=%d", *nodes, *clusters, *links, *seed)
	}
	t, err := spef.ResolveTopology(kind)
	if err != nil {
		return err
	}
	n, d := t.Network, t.Demands

	// fig1, simple and SNDlib imports (whose DEMANDS section is the
	// topology's defining workload) carry their own demands; every
	// other topology's demands come from the requested generator.
	builtin := kind == "fig1" || kind == "simple" ||
		(strings.HasPrefix(kind, "sndlib:") && d != nil)
	if !builtin || *demands == "none" {
		// The seeded generators default to seed 1; thread the -seed
		// flag through unless the spec sets its own.
		spec := strings.TrimSpace(*demands)
		name, _, _ := strings.Cut(spec, ":")
		if (name == "ft" || name == "gravity") && !strings.Contains(spec, "seed=") {
			sep := ":"
			if strings.Contains(spec, ":") {
				sep = ","
			}
			spec = fmt.Sprintf("%s%sseed=%d", spec, sep, *seed)
		}
		if d, err = spef.ResolveDemands(spec, n); err != nil {
			return err
		}
		if d != nil && *load > 0 {
			if d, err = d.ScaledToLoad(n, *load); err != nil {
				return err
			}
		}
	}
	return spef.WriteNetworkAndDemands(w, n, d)
}
