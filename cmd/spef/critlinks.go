package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	spef "repro"
)

// critlinksMain runs `spef critlinks`: rank a topology's failure units
// (duplex pairs or SRLG groups) by the MLU regret their failure
// inflicts on deployed ECMP weights, written as JSONL sorted worst
// first.
func critlinksMain(args []string) error {
	fs := flag.NewFlagSet("critlinks", flag.ExitOnError)
	var (
		topology = fs.String("topology", "", "topology registry spec (required: abilene, zoo:file=net.graphml, rand:n=50, ...; see `spef catalog`)")
		demands  = fs.String("demands", "", "demand generator spec overriding the topology default (ft, gravity, uniform)")
		load     = fs.Float64("load", 0, "scale the demands to this network load (0 = native scale)")
		failures = fs.String("failures", "single", "failure set to rank: single, dual, or srlg:file=GROUPS.json")
		router   = fs.String("router", "", "router spec supplying the deployed ECMP weights (default: invcap); must forward by a single weight vector (invcap/ospf, ospf-ls, ospf-ls-robust)")
		iters    = fs.Int("iters", 0, "optimizing router's candidate-evaluation budget (0 = automatic)")
		workers  = fs.Int("workers", 0, "concurrent variant evaluations (0 = GOMAXPROCS)")
		out      = fs.String("o", "", "output file (default stdout)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: spef critlinks -topology SPEC [-demands SPEC] [-load L] [-failures single|dual|srlg:file=F] [-router SPEC] [-iters N] [-workers N] [-o FILE]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topology == "" {
		fs.Usage()
		return fmt.Errorf("-topology is required")
	}

	topo, err := spef.ResolveTopology(*topology)
	if err != nil {
		return err
	}
	d := topo.Demands
	if *demands != "" {
		if d, err = spef.ResolveDemands(*demands, topo.Network); err != nil {
			return err
		}
	}
	if d == nil {
		return fmt.Errorf("topology %q has no demands; pass -demands", *topology)
	}
	if *load > 0 {
		if d, err = d.ScaledToLoad(topo.Network, *load); err != nil {
			return err
		}
	}
	opts := spef.CriticalLinksOptions{
		Failures: *failures,
		Workers:  *workers,
	}
	if *router != "" {
		r, err := spef.ResolveRouter(*router, *iters)
		if err != nil {
			return err
		}
		opts.Router = r
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rows, err := spef.RankCriticalLinks(ctx, topo.Network, d, opts)
	if err != nil {
		return err
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return spef.WriteCriticalLinksJSONL(w, rows)
}
