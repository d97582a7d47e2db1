package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"

	spef "repro"
)

// optimizeMain runs `spef optimize`: optimize SPEF link weights for a
// network and demand set given in the text format `spef topogen` writes
// (see package spef: node/link/duplex/demand lines), and print the two
// per-link weights, the resulting link utilizations, and a comparison
// against InvCap OSPF.
func optimizeMain(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return optimize(ctx, args, os.Stdin, os.Stdout)
}

// optimize is `spef optimize` with its flags in args, reading the
// network from stdin unless -in names a file.
func optimize(ctx context.Context, args []string, stdin io.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("spef optimize", flag.ExitOnError)
	var (
		in      = fs.String("in", "", "input file (default stdin)")
		beta    = fs.Float64("beta", 1, "load-balance exponent of the (q,beta) objective")
		iters   = fs.Int("iters", 0, "algorithm 1 iteration budget (0 = default)")
		load    = fs.Float64("load", 0, "rescale demands to this network load (0 = keep)")
		integer = fs.Bool("integer", false, "also print OSPF-compatible integer weights")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	src := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	n, d, err := spef.ParseNetworkAndDemands(src)
	if err != nil {
		return err
	}
	if d.Total() == 0 {
		return fmt.Errorf("input has no demands")
	}
	if *load > 0 {
		if d, err = d.ScaledToLoad(n, *load); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "network: %d nodes, %d links, demand %.4g (load %.4f)\n",
		n.NumNodes(), n.NumLinks(), d.Total(), d.NetworkLoad(n))

	p, err := spef.Optimize(ctx, n, d, spef.WithBeta(*beta), spef.WithMaxIterations(*iters))
	if err != nil {
		return err
	}
	report, err := p.Evaluate(d)
	if err != nil {
		return err
	}
	ospfRoutes, err := spef.OSPF(nil).Routes(ctx, n, d)
	if err != nil {
		return err
	}
	ospf, err := ospfRoutes.Evaluate(d)
	if err != nil {
		return err
	}

	w1 := p.FirstWeights()
	w2 := p.SecondWeights()
	var iw []float64
	if *integer {
		if iw, _, err = p.IntegerFirstWeights(); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := "link\tfrom\tto\tcap\tw1\tw2\tutil\tospf-util"
	if *integer {
		header += "\tw1-int"
	}
	fmt.Fprintln(tw, header)
	for e := 0; e < n.NumLinks(); e++ {
		from, to, capacity := n.Link(e)
		fmt.Fprintf(tw, "%d\t%s\t%s\t%g\t%.4f\t%.4f\t%.3f\t%.3f",
			e+1, n.NodeName(from), n.NodeName(to), capacity,
			w1[e], w2[e], report.LinkUtilization[e], ospf.LinkUtilization[e])
		if *integer {
			fmt.Fprintf(tw, "\t%.0f", iw[e])
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "SPEF: MLU %.4f, utility %.4f\n", report.MLU, report.Utility)
	_, err = fmt.Fprintf(w, "OSPF: MLU %.4f, utility %.4f\n", ospf.MLU, ospf.Utility)
	return err
}
